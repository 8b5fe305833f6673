// Garden dataset generator: a synthetic stand-in for the paper's botanical
// garden deployment (11 motes, each reporting temperature / voltage /
// humidity, queried as one network-state relation of 3*motes + 1
// attributes). The essential structure, which gives conditional plans their
// factor-4 win on Garden-11, is *cross-mote redundancy*: all motes sample
// the same forest microclimate, so one cheap observation (hour, or any one
// mote's voltage, which tracks temperature) carries information about every
// expensive attribute.
//
// Costs follow the paper: temperature and humidity cost 100 units; voltage
// and hour cost 1 unit.

#ifndef CAQP_DATA_GARDEN_GEN_H_
#define CAQP_DATA_GARDEN_GEN_H_

#include <vector>

#include "core/dataset.h"

namespace caqp {

struct GardenDataOptions {
  size_t num_motes = 11;  // 5 => Garden-5 (16 attrs), 11 => Garden-11 (34)
  size_t epochs = 30000;
  uint64_t seed = 777;
};

/// Per-mote attribute ids in a generated garden schema.
struct GardenAttrs {
  AttrId hour;
  std::vector<AttrId> temperature;  // one per mote
  std::vector<AttrId> voltage;
  std::vector<AttrId> humidity;
};

/// One row per epoch: hour, then (temp_i, volt_i, humid_i) per mote.
Dataset GenerateGardenData(const GardenDataOptions& options);

GardenAttrs ResolveGardenAttrs(const Schema& schema);

}  // namespace caqp

#endif  // CAQP_DATA_GARDEN_GEN_H_
