// Conditional query plans (paper Section 2.1).
//
// A plan is a binary decision tree. Interior nodes carry a *conditioning
// predicate* T(X_i >= x): the executor acquires X_i (paying its cost if this
// is the first read of X_i for the current tuple) and branches. Leaves come
// in three flavors:
//
//  * Verdict(T/F)     -- the truth of the WHERE clause is already determined.
//  * Sequential(...)  -- an ordered list of residual range predicates
//                        evaluated with short-circuit AND semantics; this is
//                        how GreedyPlan embeds its per-leaf sequential plans
//                        and how ExhaustivePlan terminates once every query
//                        attribute has been acquired (the residual tests are
//                        then free).
//  * Generic(...)     -- an acquisition order plus the full (possibly DNF)
//                        query; the executor acquires attributes in order and
//                        stops as soon as three-valued evaluation determines
//                        the query. Supports the Section 7 existential
//                        extension.
//
// A purely sequential plan (Naive / OptSeq / GreedySeq output) is a plan
// whose root is a Sequential leaf.

#ifndef CAQP_PLAN_PLAN_H_
#define CAQP_PLAN_PLAN_H_

#include <memory>
#include <vector>

#include "core/predicate.h"
#include "core/query.h"
#include "core/schema.h"
#include "core/types.h"

namespace caqp {

struct PlanNode {
  enum class Kind : uint8_t {
    kSplit = 0,
    kVerdict = 1,
    kSequential = 2,
    kGeneric = 3,
  };

  Kind kind = Kind::kVerdict;

  // --- kSplit ---
  AttrId attr = kInvalidAttr;  ///< attribute observed at this node
  Value split_value = 0;       ///< test is X_attr >= split_value
  std::unique_ptr<PlanNode> lt;  ///< branch for X < split_value
  std::unique_ptr<PlanNode> ge;  ///< branch for X >= split_value

  // --- kVerdict ---
  bool verdict = false;

  // --- kSequential ---
  /// Residual predicates in evaluation order; all-true => tuple passes.
  std::vector<Predicate> sequence;

  // --- kGeneric ---
  Query residual_query;
  std::vector<AttrId> acquire_order;

  static std::unique_ptr<PlanNode> Verdict(bool v);
  static std::unique_ptr<PlanNode> Sequential(std::vector<Predicate> seq);
  static std::unique_ptr<PlanNode> Split(AttrId attr, Value split_value,
                                         std::unique_ptr<PlanNode> lt,
                                         std::unique_ptr<PlanNode> ge);
  static std::unique_ptr<PlanNode> Generic(Query q,
                                           std::vector<AttrId> order);

  std::unique_ptr<PlanNode> Clone() const;
};

/// An executable conditional plan. Owns its node tree.
class Plan {
 public:
  Plan() : root_(PlanNode::Verdict(false)) {}
  explicit Plan(std::unique_ptr<PlanNode> root) : root_(std::move(root)) {
    CAQP_CHECK(root_ != nullptr);
  }

  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;
  // Deep copies are expensive (a full subtree clone per node) and were easy
  // to make by accident — pass plans by reference / move them, or ask for a
  // copy explicitly.
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  /// Explicit deep copy.
  Plan Clone() const { return Plan(root_->Clone()); }

  const PlanNode& root() const { return *root_; }

  /// Total node count (splits + leaves).
  size_t NumNodes() const;
  /// Interior (split) node count; GreedyPlan's MAXSIZE bounds this.
  size_t NumSplits() const;
  /// Longest root-to-leaf path length in edges.
  size_t Depth() const;

  /// True iff the plan's verdict equals query.Matches(t) for this tuple.
  /// (The executor computes verdicts; this is a convenience for tests.)
  bool VerdictFor(const Tuple& t) const;

 private:
  std::unique_ptr<PlanNode> root_;
};

}  // namespace caqp

#endif  // CAQP_PLAN_PLAN_H_
