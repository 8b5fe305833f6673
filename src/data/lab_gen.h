// Lab dataset generator: a synthetic stand-in for the Intel Research lab
// trace the paper uses (400k light/temperature/humidity readings from ~45
// motes at 2-minute intervals). The generator reproduces the correlation
// structure the paper's plans exploit:
//
//  * light is strongly banded by hour of day (the paper's Figure 1), with
//    lab lamps on during working hours;
//  * motes split into a front zone (low node ids) that is dark at night and
//    a back zone (node id >= ~60% of motes) with occasional late-night work
//    sessions -- driving the Figure 9 plan's nodeid split;
//  * temperature follows hour and light (HVAC active in the daytime);
//  * humidity is kept low while the HVAC runs and rises at night -- which is
//    why Figure 9's plan samples humidity first late at night;
//  * voltage decays slowly and is cheap, as are nodeid and hour.
//
// Costs follow the paper: 100 units for light/temperature/humidity, 1 unit
// for nodeid/hour/voltage.

#ifndef CAQP_DATA_LAB_GEN_H_
#define CAQP_DATA_LAB_GEN_H_

#include "core/dataset.h"

namespace caqp {

struct LabDataOptions {
  size_t num_motes = 10;
  size_t readings = 40000;
  uint64_t seed = 20050405;  // ICDE'05 :-)
  uint32_t light_bins = 16;
  uint32_t temp_bins = 16;
  uint32_t humidity_bins = 16;
  uint32_t voltage_bins = 8;
};

/// Attribute ids within the generated schema.
struct LabAttrs {
  AttrId nodeid;
  AttrId hour;
  AttrId voltage;
  AttrId light;
  AttrId temperature;
  AttrId humidity;
};

/// Generates the dataset; attribute order is nodeid, hour, voltage, light,
/// temperature, humidity. Rows are in time order (one mote reading per row,
/// motes round-robin every 2 simulated minutes), so Dataset::SplitAt gives
/// the paper's disjoint-time-window train/test split.
Dataset GenerateLabData(const LabDataOptions& options);

/// Resolves the well-known attribute ids from a generated schema.
LabAttrs ResolveLabAttrs(const Schema& schema);

}  // namespace caqp

#endif  // CAQP_DATA_LAB_GEN_H_
