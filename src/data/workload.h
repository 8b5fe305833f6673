// Query workload generators replicating the paper's experimental query
// construction (Sections 6.1 and 6.2).

#ifndef CAQP_DATA_WORKLOAD_H_
#define CAQP_DATA_WORKLOAD_H_

#include <vector>

#include "core/dataset.h"
#include "core/query.h"

namespace caqp {

/// Lab workload (Section 6.1): queries with one range predicate per target
/// attribute; each predicate's left endpoint is uniform over the domain and
/// its width is two standard deviations of the attribute (per the training
/// data), clipped to the domain. Predicates end up passing a large (~50%)
/// fraction of tuples, the paper's "challenging setting".
struct LabQueryOptions {
  size_t num_queries = 95;
  uint64_t seed = 4242;
};
std::vector<Query> GenerateLabQueries(const Dataset& train,
                                      const std::vector<AttrId>& target_attrs,
                                      const LabQueryOptions& options);

/// Garden workload (Section 6.2): identical range predicates over the
/// temperature and humidity of every mote; each query draws a range
/// covering domain_size / f values for f uniform in [1.25, 3.25],
/// independently for temperature and humidity, and negates each sensor
/// type's predicates with probability 1/2.
struct GardenQueryOptions {
  size_t num_queries = 90;
  uint64_t seed = 1717;
};
std::vector<Query> GenerateGardenQueries(
    const Schema& schema, const std::vector<AttrId>& temperature_attrs,
    const std::vector<AttrId>& humidity_attrs,
    const GardenQueryOptions& options);

}  // namespace caqp

#endif  // CAQP_DATA_WORKLOAD_H_
