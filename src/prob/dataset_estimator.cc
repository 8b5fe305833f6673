#include "prob/dataset_estimator.h"

#include <algorithm>
#include <bit>
#include <numeric>

namespace caqp {

namespace {

/// Groups the dataset's rows into distinct tuples in first-occurrence order:
/// appends each tuple's first row to `first_row` and its number of rows to
/// `multiplicity`. Rows are hashed a block at a time, one column after
/// another, and looked up in an open-addressing table of (hash, tuple)
/// slots kept at most half full; only rows with equal hashes compare values.
void GroupRows(const Dataset& data, std::vector<RowId>& first_row,
               std::vector<uint32_t>& multiplicity) {
  constexpr uint32_t kNoTuple = ~uint32_t{0};
  struct Slot {
    uint32_t hash = 0;  ///< top 32 bits of the row hash
    uint32_t tuple = kNoTuple;
  };
  std::vector<const Value*> cols;
  for (size_t a = 0; a < data.num_attributes(); ++a) {
    cols.push_back(data.column(static_cast<AttrId>(a)).data());
  }
  const auto same = [&](size_t r, size_t s) {
    for (const Value* col : cols) {
      if (col[r] != col[s]) return false;
    }
    return true;
  };
  std::vector<uint32_t> tuple_hash;  // each tuple's Slot::hash
  std::vector<Slot> slots(64);
  int shift = 32 - 6;  // a slot index is the top log2(slots) hash bits
  const auto probe = [&](uint32_t h, size_t r) {
    size_t s = h >> shift;
    while (slots[s].tuple != kNoTuple &&
           (slots[s].hash != h || !same(first_row[slots[s].tuple], r))) {
      s = (s + 1) & (slots.size() - 1);
    }
    return s;
  };
  constexpr size_t kBlock = 256;
  uint64_t hash[kBlock];
  for (size_t r0 = 0; r0 < data.num_rows(); r0 += kBlock) {
    const size_t n = std::min(kBlock, data.num_rows() - r0);
    std::fill_n(hash, n, 0);
    for (const Value* col : cols) {
      for (size_t i = 0; i < n; ++i) {
        hash[i] = (hash[i] ^ col[r0 + i]) * 0x9E3779B97F4A7C15ULL;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t h = static_cast<uint32_t>(hash[i] >> 32);
      const size_t s = probe(h, r0 + i);
      if (slots[s].tuple != kNoTuple) {
        ++multiplicity[slots[s].tuple];
        continue;
      }
      slots[s] = Slot{h, static_cast<uint32_t>(first_row.size())};
      first_row.push_back(static_cast<RowId>(r0 + i));
      multiplicity.push_back(1);
      tuple_hash.push_back(h);
      if (2 * first_row.size() <= slots.size()) continue;
      slots.assign(2 * slots.size(), Slot{});
      --shift;
      for (uint32_t t = 0; t < tuple_hash.size(); ++t) {
        slots[probe(tuple_hash[t], first_row[t])] = Slot{tuple_hash[t], t};
      }
    }
  }
}

}  // namespace

DatasetEstimator::DatasetEstimator(const Dataset& data) : data_(data) {
  const Schema& schema = data_.schema();
  std::vector<RowId> grouped_rows;
  std::vector<uint32_t> grouped_multiplicity;
  GroupRows(data_, grouped_rows, grouped_multiplicity);
  tuples_ = grouped_rows.size();

  // Lay the tuples out by the bit width of their multiplicity, widest
  // first, in first-occurrence order within a width (a stable counting
  // sort). A word then needs about as many planes as its tuples' width,
  // rather than the widest of 64 tuples drawn at random: on partly repeated
  // data that halves the planes the popcount paths visit.
  std::vector<size_t> next(33, 0);  // next slot, by 32 - bit width
  for (const uint32_t m : grouped_multiplicity) ++next[32 - std::bit_width(m)];
  std::exclusive_scan(next.begin(), next.end(), next.begin(), size_t{0});
  std::vector<RowId> first_row(tuples_);  // each tuple's first row
  multiplicity_.resize(tuples_);
  for (size_t t = 0; t < tuples_; ++t) {
    const uint32_t m = grouped_multiplicity[t];
    const size_t i = next[32 - std::bit_width(m)]++;
    first_row[i] = grouped_rows[t];
    multiplicity_[i] = m;
  }

  words_ = (tuples_ + 63) / 64;
  last_word_mask_ = tuples_ % 64 == 0 ? ~uint64_t{0}
                                      : (uint64_t{1} << (tuples_ % 64)) - 1;
  values_.resize(schema.num_attributes() * tuples_);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const Value* col = data_.column(static_cast<AttrId>(a)).data();
    for (size_t t = 0; t < tuples_; ++t) {
      values_[a * tuples_ + t] = col[first_row[t]];
    }
  }

  size_t bitmaps = 1;  // bitmap 0: no tuples
  first_.resize(schema.num_attributes());
  for (size_t a = 0; a < first_.size(); ++a) {
    first_[a] = bitmaps;
    bitmaps += schema.domain_size(static_cast<AttrId>(a));
  }
  index_.assign(bitmaps * words_, 0);
  for (size_t a = 0; a < first_.size(); ++a) {
    uint64_t* bits = index_.data() + first_[a] * words_;
    const Value* col = TupleColumn(static_cast<AttrId>(a));
    for (size_t t = 0; t < tuples_; ++t) {
      bits[col[t] * words_ + t / 64] |= uint64_t{1} << (t % 64);
    }
    // Prefix-OR turns the "X == v" bitmaps into "X <= v".
    const uint32_t k = schema.domain_size(static_cast<AttrId>(a));
    for (size_t i = words_; i < k * words_; ++i) bits[i] |= bits[i - words_];
  }

  // Each word holds as many multiplicity planes as its largest
  // multiplicity has bits.
  plane_start_.assign(words_ + 1, 0);
  for (size_t w = 0; w < words_; ++w) {
    uint32_t bits = 0;
    for (size_t t = 64 * w; t < std::min(tuples_, 64 * w + 64); ++t) {
      bits |= multiplicity_[t];
    }
    plane_start_[w + 1] = plane_start_[w] + std::bit_width(bits);
  }
  planes_.assign(plane_start_[words_], 0);
  for (size_t t = 0; t < tuples_; ++t) {
    uint64_t* planes = planes_.data() + plane_start_[t / 64];
    const uint32_t m = multiplicity_[t];
    for (uint32_t b = 0; b < std::bit_width(m); ++b) {
      planes[b] |= uint64_t{(m >> b) & 1} << (t % 64);
    }
  }
}

const uint64_t* DatasetEstimator::AtMost(AttrId attr, int64_t v) const {
  if (v < 0) return index_.data();
  return index_.data() + (first_[attr] + static_cast<size_t>(v)) * words_;
}

DatasetEstimator::RangeBits DatasetEstimator::Bits(AttrId attr, ValueRange r,
                                                   bool negated) const {
  return RangeBits{AtMost(attr, r.hi), AtMost(attr, int64_t{r.lo} - 1),
                   negated ? ~uint64_t{0} : uint64_t{0}};
}

std::vector<uint64_t> DatasetEstimator::Scope(const RangeVec& given) const {
  const Schema& schema = data_.schema();
  CAQP_CHECK(schema.ValidRanges(given));
  std::vector<uint64_t> scope(words_, ~uint64_t{0});
  if (words_ > 0) scope.back() = last_word_mask_;
  for (size_t a = 0; a < given.size(); ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    if (given[a].Width() == schema.domain_size(attr)) continue;
    const RangeBits range = Bits(attr, given[a]);
    for (size_t w = 0; w < words_; ++w) scope[w] &= range.Word(w);
  }
  return scope;
}

std::vector<RowId> DatasetEstimator::RowsMatching(const RangeVec& given) const {
  const Schema& schema = data_.schema();
  CAQP_CHECK(schema.ValidRanges(given));
  std::vector<RowId> rows;
  for (size_t r = 0; r < data_.num_rows(); ++r) {
    bool match = true;
    for (size_t a = 0; match && a < given.size(); ++a) {
      match = given[a].Contains(data_.at(static_cast<RowId>(r),
                                         static_cast<AttrId>(a)));
    }
    if (match) rows.push_back(static_cast<RowId>(r));
  }
  return rows;
}

Histogram DatasetEstimator::Marginal(const RangeVec& given, AttrId attr) {
  const std::vector<uint64_t> scope = Scope(given);
  const ValueRange range = given[attr];
  // at_most[i]: scope rows with X_attr <= range.lo + i. The scope already
  // excludes values below range.lo.
  std::vector<uint64_t> at_most(range.Width(), 0);
  const uint64_t* bits = AtMost(attr, range.lo);
  for (size_t w = 0; w < words_; ++w) {
    if (scope[w] == 0) continue;
    for (uint32_t p = plane_start_[w], b = 0; p < plane_start_[w + 1];
         ++p, ++b) {
      // Scope tuples whose multiplicity has bit b set.
      const uint64_t s = scope[w] & planes_[p];
      if (s == 0) continue;
      for (size_t i = 0; i < at_most.size(); ++i) {
        at_most[i] +=
            static_cast<uint64_t>(std::popcount(s & bits[i * words_ + w])) << b;
      }
    }
  }
  Histogram h(data_.schema().domain_size(attr));
  uint64_t below = 0;
  for (size_t i = 0; i < at_most.size(); ++i) {
    if (at_most[i] > below) {
      h.Add(static_cast<Value>(range.lo + i),
            static_cast<double>(at_most[i] - below));
    }
    below = at_most[i];
  }
  return h;
}

double DatasetEstimator::ReachProbability(const RangeVec& given) {
  if (data_.num_rows() == 0) return 0.0;
  const std::vector<uint64_t> scope = Scope(given);
  uint64_t rows = 0;
  for (size_t w = 0; w < words_; ++w) {
    for (uint32_t p = plane_start_[w], b = 0; p < plane_start_[w + 1];
         ++p, ++b) {
      rows += static_cast<uint64_t>(std::popcount(scope[w] & planes_[p])) << b;
    }
  }
  return static_cast<double>(rows) / static_cast<double>(data_.num_rows());
}

namespace {

/// Transposes an 8x8 bit matrix stored one row per byte: bit c of byte r
/// moves to bit r of byte c (Hacker's Delight, transpose8).
uint64_t Transpose8(uint64_t x) {
  uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

/// Calls visit(b, mask) for every bit b set in `tuples`, ascending, where
/// bit j of mask is bit b of truth[j] (j < k). Masks are assembled eight
/// tuples by eight predicates at a time with one bit-matrix transpose.
/// kBlocks fixes ceil(k / 8) at compile time; 0 derives it from k.
template <size_t kBlocks, typename Visit>
void ForEachTupleMask(uint64_t tuples, const uint64_t* truth, size_t k,
                      Visit&& visit) {
  const size_t blocks = kBlocks != 0 ? kBlocks : (k + 7) / 8;
  for (int g = 0; g < 8; ++g) {
    uint64_t group = (tuples >> (8 * g)) & 0xFF;
    if (group == 0) continue;
    // tm[i]: predicates 8i..8i+7 of the group's 8 tuples, one byte per tuple.
    uint64_t tm[kBlocks != 0 ? kBlocks : 8] = {};
    for (size_t i = 0; i < blocks; ++i) {
      const size_t n = k > 8 * i ? std::min<size_t>(8, k - 8 * i) : 0;
      uint64_t m = 0;
      for (size_t j = 0; j < n; ++j) {
        m |= ((truth[8 * i + j] >> (8 * g)) & 0xFF) << (8 * j);
      }
      tm[i] = Transpose8(m);
    }
    const auto mask_of = [&](int b) {
      uint64_t mask = 0;
      for (size_t i = 0; i < blocks; ++i) {
        mask |= ((tm[i] >> (8 * b)) & 0xFF) << (8 * i);
      }
      return mask;
    };
    if (group == 0xFF) {
      for (int b = 0; b < 8; ++b) visit(8 * g + b, mask_of(b));
      continue;
    }
    for (; group != 0; group &= group - 1) {
      const int b = std::countr_zero(group);
      visit(8 * g + b, mask_of(b));
    }
  }
}

/// Row counts keyed by (value index, mask) in an open-addressing table, for
/// calls whose dense table would exceed kDenseTableEntries. Holds at most
/// `max_keys` distinct keys.
class KeyedCounts {
 public:
  struct Entry {
    uint64_t mask = 0;
    uint32_t value = 0;
    uint32_t count = 0;  ///< 0 marks an empty slot
  };

  explicit KeyedCounts(size_t max_keys)
      : slots_(std::bit_ceil(2 * max_keys + 2)) {}

  /// Adds `rows` (> 0) to the count of (value, mask).
  void Increment(uint32_t value, uint64_t mask, uint32_t rows) {
    const size_t last = slots_.size() - 1;
    uint64_t h = (mask ^ (uint64_t{value} << 48)) * 0x9E3779B97F4A7C15ULL;
    for (size_t i = (h >> 32) & last;; i = (i + 1) & last) {
      Entry& e = slots_[i];
      if (e.count == 0) {
        e = Entry{mask, value, rows};
        return;
      }
      if (e.mask == mask && e.value == value) {
        e.count += rows;
        return;
      }
    }
  }

  /// The counted keys, ascending by (value index, mask).
  std::vector<Entry> Sorted() const {
    std::vector<Entry> out;
    for (const Entry& e : slots_) {
      if (e.count != 0) out.push_back(e);
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.value != b.value ? a.value < b.value : a.mask < b.mask;
    });
    return out;
  }

 private:
  std::vector<Entry> slots_;
};

}  // namespace

void DatasetEstimator::CountMasks(const RangeVec& given, AttrId attr,
                                  const std::vector<Predicate>& preds,
                                  std::vector<MaskDistribution>& out) const {
  CAQP_CHECK_LE(preds.size(), 64u);
  const std::vector<uint64_t> scope = Scope(given);
  const size_t k = preds.size();
  std::vector<RangeBits> pred_bits;
  pred_bits.reserve(k);
  for (const Predicate& p : preds) {
    pred_bits.push_back(Bits(p.attr, ValueRange{p.lo, p.hi}, p.negated));
  }
  // The split attribute's tuple column gives each tuple's value index;
  // without a split every tuple counts under index 0.
  const Value* split_col = attr != kInvalidAttr ? TupleColumn(attr) : nullptr;
  const Value lo = attr != kInvalidAttr ? given[attr].lo : 0;

  // Calls count(value index, mask, rows) once per scope tuple, with the
  // number of rows the tuple stands for.
  std::vector<uint64_t> truth(k);
  const auto for_each_tuple = [&](auto&& count) {
    for (size_t w = 0; w < words_; ++w) {
      if (scope[w] == 0) continue;
      for (size_t j = 0; j < k; ++j) truth[j] = pred_bits[j].Word(w);
      const Value* values = split_col != nullptr ? split_col + w * 64 : nullptr;
      const uint32_t* rows = multiplicity_.data() + w * 64;
      const auto visit = [&](int b, uint64_t mask) {
        count(values != nullptr ? static_cast<uint32_t>(values[b] - lo) : 0u,
              mask, rows[b]);
      };
      if (k <= 8) {
        ForEachTupleMask<1>(scope[w], truth.data(), k, visit);
      } else if (k <= 16) {
        ForEachTupleMask<2>(scope[w], truth.data(), k, visit);
      } else {
        ForEachTupleMask<0>(scope[w], truth.data(), k, visit);
      }
    }
  };

  const size_t width = out.size();
  if (k < 64 && width <= (kDenseTableEntries >> k)) {
    std::vector<uint32_t> table(width << k, 0);
    for_each_tuple([&](uint32_t i, uint64_t mask, uint32_t rows) {
      table[(i << k) | mask] += rows;
    });
    const size_t masks = size_t{1} << k;
    for (size_t i = 0; i < width; ++i) {
      const uint32_t* counts = table.data() + i * masks;
      for (size_t mask = 0; mask < masks; ++mask) {
        if (counts[mask] != 0) out[i].Add(mask, counts[mask]);
      }
    }
    return;
  }
  size_t tuples = 0;
  for (const uint64_t s : scope) tuples += std::popcount(s);
  KeyedCounts counts(tuples);
  for_each_tuple([&](uint32_t i, uint64_t mask, uint32_t rows) {
    counts.Increment(i, mask, rows);
  });
  for (const KeyedCounts::Entry& e : counts.Sorted()) {
    out[e.value].Add(e.mask, e.count);
  }
}

MaskDistribution DatasetEstimator::PredicateMasks(
    const RangeVec& given, const std::vector<Predicate>& preds) {
  std::vector<MaskDistribution> out(1);
  CountMasks(given, kInvalidAttr, preds, out);
  return std::move(out.front());
}

std::vector<MaskDistribution> DatasetEstimator::PerValuePredicateMasks(
    const RangeVec& given, AttrId attr, const std::vector<Predicate>& preds) {
  std::vector<MaskDistribution> out(given[attr].Width());
  CountMasks(given, attr, preds, out);
  return out;
}

}  // namespace caqp
