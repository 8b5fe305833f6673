// Acquisition cost models.
//
// The paper's base model charges a fixed per-attribute cost C_i the first
// time X_i is read for a tuple (Section 2.1). Section 7 ("Complex
// acquisition costs") motivates costs that depend on what has already been
// acquired -- e.g., a mote sensor board whose power-up cost is shared by all
// sensors on the board. AcquisitionCostModel abstracts both: Cost() returns
// the *marginal* cost of acquiring `attr` given the set already acquired for
// this tuple, and every planner and the executor route all charging through
// it.

#ifndef CAQP_OPT_COST_MODEL_H_
#define CAQP_OPT_COST_MODEL_H_

#include <vector>

#include "core/schema.h"
#include "prob/subproblem.h"

namespace caqp {

class AcquisitionCostModel {
 public:
  virtual ~AcquisitionCostModel() = default;

  /// Marginal cost of acquiring `attr` when the attributes in `acquired`
  /// have already been acquired for the current tuple. Callers only invoke
  /// this for attr not in `acquired`; re-reads are free by construction.
  virtual double Cost(AttrId attr, const AttrSet& acquired) const = 0;
};

/// The paper's model: Cost(attr, *) == schema.cost(attr).
class PerAttributeCostModel : public AcquisitionCostModel {
 public:
  explicit PerAttributeCostModel(const Schema& schema) : schema_(schema) {}
  double Cost(AttrId attr, const AttrSet& acquired) const override {
    (void)acquired;
    return schema_.cost(attr);
  }

 private:
  const Schema& schema_;
};

/// Section 7's sensor-board model: each attribute lives on a board; the
/// first acquisition from a board additionally pays that board's power-up
/// cost. Attributes not assigned to a board (board id < 0) pay only their
/// per-attribute cost.
class SensorBoardCostModel : public AcquisitionCostModel {
 public:
  /// `board_of[attr]` gives the board index of each attribute or -1;
  /// `board_powerup[b]` the power-up cost of board b.
  SensorBoardCostModel(const Schema& schema, std::vector<int> board_of,
                       std::vector<double> board_powerup);

  double Cost(AttrId attr, const AttrSet& acquired) const override;

 private:
  const Schema& schema_;
  std::vector<int> board_of_;
  std::vector<double> board_powerup_;
};

}  // namespace caqp

#endif  // CAQP_OPT_COST_MODEL_H_
