// DatasetEstimator: exact conditional probabilities by counting over a
// historical dataset (paper Sections 2.3 and 5).
//
// Section 5 keeps one row list per subproblem. This estimator replaces those
// lists with an immutable bitmap count index built once, in the
// constructor, over the dataset's *distinct tuples* rather than its rows.
// Rows are grouped into tuples through a flat hash table, and each tuple
// keeps its multiplicity: the number of rows it stands for. Low-cardinality
// data repeats tuples heavily (12,000 rows of the paper's synthetic
// generator with 10 binary attributes hold ~670 distinct tuples), so index
// work scales with distinct tuples, never more than rows. For every
// attribute X and value v the index holds the 64-bit-word bitmap of tuples
// with X <= v. A value range [lo, hi] is then one AND-NOT of two bitmaps,
// and a subproblem's tuples (its *scope*) are the AND of its narrowed
// attributes' ranges. Every statistic is an exact integer count of the rows
// behind the scope's tuples:
//
//  * Marginal / ReachProbability -- weighted popcounts. Multiplicities are
//    stored bit-sliced: plane b of a word holds bit b of each of its
//    tuples' multiplicities, so a word's row count is
//    sum_b 2^b * popcount(x & plane_b). A word keeps only as many planes as
//    its largest multiplicity has bits, and tuples are laid out by that bit
//    width (widest first, otherwise in first-occurrence order), so one
//    heavily repeated tuple widens one word, not every word. On all-distinct
//    data every word has one all-ones plane.
//  * PredicateMasks / PerValuePredicateMasks -- each scope tuple's
//    predicate mask is assembled from the predicates' range bitmaps, eight
//    tuples by eight predicates per bit-matrix transpose, and its
//    multiplicity is added to its (value, mask) count in a dense table
//    while (value-range width x 2^k) <= kDenseTableEntries for k
//    predicates, in a hash table otherwise.
//
// Entries come out in ascending mask order with integer weights, exactly
// what per-row counting followed by MaskDistribution::Aggregate produced,
// so every plan built on this estimator is bit-identical to one built by
// walking the rows.
//
// Thread safety: nothing is mutated after construction and all scratch is
// per call, so one instance may be shared by any number of threads. The
// dataset must outlive the estimator and must not change after the
// estimator is built.

#ifndef CAQP_PROB_DATASET_ESTIMATOR_H_
#define CAQP_PROB_DATASET_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "prob/estimator.h"

namespace caqp {

class DatasetEstimator : public CondProbEstimator {
 public:
  /// Largest (value-range width x 2^k) counted into a dense table; wider
  /// calls count into a hash table sized by the scope's tuples instead.
  static constexpr size_t kDenseTableEntries = size_t{1} << 16;

  /// Builds the index. The dataset must outlive the estimator.
  explicit DatasetEstimator(const Dataset& data);

  const Schema& schema() const override { return data_.schema(); }

  Histogram Marginal(const RangeVec& given, AttrId attr) override;
  double ReachProbability(const RangeVec& given) override;
  MaskDistribution PredicateMasks(const RangeVec& given,
                                  const std::vector<Predicate>& preds) override;
  std::vector<MaskDistribution> PerValuePredicateMasks(
      const RangeVec& given, AttrId attr,
      const std::vector<Predicate>& preds) override;

  /// Rows matching the ranges, ascending: a scan of the dataset's rows, not
  /// an index lookup. Exposed for tests and metrics.
  std::vector<RowId> RowsMatching(const RangeVec& given) const;

  const Dataset& dataset() const { return data_; }

 private:
  /// Tuples with X_attr in [lo, hi] (or outside it, when flipped), one word
  /// at a time: AtMost(hi) AND NOT AtMost(lo - 1).
  struct RangeBits {
    const uint64_t* at_most_hi;
    const uint64_t* below_lo;
    uint64_t flip;
    uint64_t Word(size_t w) const {
      return (at_most_hi[w] & ~below_lo[w]) ^ flip;
    }
  };

  /// Bitmap of tuples with X_attr <= v; v == -1 gives the empty bitmap.
  const uint64_t* AtMost(AttrId attr, int64_t v) const;
  RangeBits Bits(AttrId attr, ValueRange r, bool negated = false) const;
  /// Bitmap of the tuples matching `given`: the AND of its ranges narrower
  /// than their attribute's domain.
  std::vector<uint64_t> Scope(const RangeVec& given) const;
  /// Each tuple's value of `attr`.
  const Value* TupleColumn(AttrId attr) const {
    return values_.data() + attr * tuples_;
  }

  /// Counts the scope's rows by (value of `attr` - given[attr].lo, predicate
  /// mask) into out[value index]; `attr` == kInvalidAttr counts every row
  /// into out[0].
  void CountMasks(const RangeVec& given, AttrId attr,
                  const std::vector<Predicate>& preds,
                  std::vector<MaskDistribution>& out) const;

  const Dataset& data_;
  size_t tuples_ = 0;
  size_t words_ = 0;
  /// Valid-tuple bits of the last word (all ones when tuples % 64 == 0).
  uint64_t last_word_mask_ = 0;
  /// tuples_ values per attribute: values_[attr * tuples_ + tuple].
  std::vector<Value> values_;
  /// Rows per tuple.
  std::vector<uint32_t> multiplicity_;
  /// The multiplicities bit-sliced: word w's planes are
  /// planes_[plane_start_[w] .. plane_start_[w + 1]), and bit t % 64 of its
  /// plane b is bit b of tuple t's multiplicity.
  std::vector<uint32_t> plane_start_;
  std::vector<uint64_t> planes_;
  /// First bitmap of each attribute in index_; bitmap 0 is all zeros.
  std::vector<size_t> first_;
  /// words_ words per bitmap: [0] zeros, then per attribute "X <= v" for
  /// v = 0 .. K-1.
  std::vector<uint64_t> index_;
};

}  // namespace caqp

#endif  // CAQP_PROB_DATASET_ESTIMATOR_H_
