#include "prob/dataset_estimator.h"

#include <algorithm>
#include <bit>

namespace caqp {

DatasetEstimator::DatasetEstimator(const Dataset& data) : data_(data) {
  const Schema& schema = data_.schema();
  const size_t rows = data_.num_rows();
  words_ = (rows + 63) / 64;
  last_word_mask_ = rows % 64 == 0 ? ~uint64_t{0}
                                   : (uint64_t{1} << (rows % 64)) - 1;
  size_t bitmaps = 1;  // bitmap 0: no rows
  first_.resize(schema.num_attributes());
  for (size_t a = 0; a < first_.size(); ++a) {
    first_[a] = bitmaps;
    bitmaps += schema.domain_size(static_cast<AttrId>(a));
  }
  index_.assign(bitmaps * words_, 0);
  for (size_t a = 0; a < first_.size(); ++a) {
    uint64_t* bits = index_.data() + first_[a] * words_;
    const std::vector<Value>& col = data_.column(static_cast<AttrId>(a));
    for (size_t r = 0; r < rows; ++r) {
      bits[col[r] * words_ + r / 64] |= uint64_t{1} << (r % 64);
    }
    // Prefix-OR turns the "X == v" bitmaps into "X <= v".
    const uint32_t k = schema.domain_size(static_cast<AttrId>(a));
    for (size_t i = words_; i < k * words_; ++i) bits[i] |= bits[i - words_];
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
  const std::vector<uint64_t> scope = Scope(given);
  std::vector<RowId> rows;
  for (size_t w = 0; w < words_; ++w) {
    for (uint64_t s = scope[w]; s != 0; s &= s - 1) {
      rows.push_back(static_cast<RowId>(w * 64 + std::countr_zero(s)));
    }
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
    for (size_t i = 0; i < at_most.size(); ++i) {
      at_most[i] += std::popcount(scope[w] & bits[i * words_ + w]);
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
  uint64_t rows = 0;
  for (const uint64_t s : Scope(given)) rows += std::popcount(s);
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

/// Calls visit(b, mask) for every bit b set in `rows`, ascending, where bit
/// j of mask is bit b of truth[j] (j < k). Masks are assembled eight rows by
/// eight predicates at a time with one bit-matrix transpose. kBlocks fixes
/// ceil(k / 8) at compile time; 0 derives it from k.
template <size_t kBlocks, typename Visit>
void ForEachRowMask(uint64_t rows, const uint64_t* truth, size_t k,
                    Visit&& visit) {
  const size_t blocks = kBlocks != 0 ? kBlocks : (k + 7) / 8;
  for (int g = 0; g < 8; ++g) {
    uint64_t group = (rows >> (8 * g)) & 0xFF;
    if (group == 0) continue;
    // tm[i]: predicates 8i..8i+7 of the group's 8 rows, one byte per row.
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

  void Increment(uint32_t value, uint64_t mask) {
    const size_t last = slots_.size() - 1;
    uint64_t h = (mask ^ (uint64_t{value} << 48)) * 0x9E3779B97F4A7C15ULL;
    for (size_t i = (h >> 32) & last;; i = (i + 1) & last) {
      Entry& e = slots_[i];
      if (e.count == 0) {
        e = Entry{mask, value, 1};
        return;
      }
      if (e.mask == mask && e.value == value) {
        ++e.count;
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
  // The split attribute's column gives each row's value index; without a
  // split every row counts under index 0.
  const Value* split_col =
      attr != kInvalidAttr ? data_.column(attr).data() : nullptr;
  const Value lo = attr != kInvalidAttr ? given[attr].lo : 0;

  // Calls count(value index, mask) once per scope row.
  std::vector<uint64_t> truth(k);
  const auto for_each_row = [&](auto&& count) {
    for (size_t w = 0; w < words_; ++w) {
      if (scope[w] == 0) continue;
      for (size_t j = 0; j < k; ++j) truth[j] = pred_bits[j].Word(w);
      const Value* values = split_col != nullptr ? split_col + w * 64 : nullptr;
      const auto visit = [&](int b, uint64_t mask) {
        count(values != nullptr ? static_cast<uint32_t>(values[b] - lo) : 0u,
              mask);
      };
      if (k <= 8) {
        ForEachRowMask<1>(scope[w], truth.data(), k, visit);
      } else if (k <= 16) {
        ForEachRowMask<2>(scope[w], truth.data(), k, visit);
      } else {
        ForEachRowMask<0>(scope[w], truth.data(), k, visit);
      }
    }
  };

  const size_t width = out.size();
  if (k < 64 && width <= (kDenseTableEntries >> k)) {
    std::vector<uint32_t> table(width << k, 0);
    for_each_row([&](uint32_t i, uint64_t mask) { ++table[(i << k) | mask]; });
    const size_t masks = size_t{1} << k;
    for (size_t i = 0; i < width; ++i) {
      const uint32_t* counts = table.data() + i * masks;
      for (size_t mask = 0; mask < masks; ++mask) {
        if (counts[mask] != 0) out[i].Add(mask, counts[mask]);
      }
    }
    return;
  }
  size_t rows = 0;
  for (const uint64_t s : scope) rows += std::popcount(s);
  KeyedCounts counts(rows);
  for_each_row(
      [&](uint32_t i, uint64_t mask) { counts.Increment(i, mask); });
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
