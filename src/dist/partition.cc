#include "dist/partition.h"

#include "common/check.h"

namespace caqp::dist {

Result<PartitionSpec::Scheme> PartitionSpec::ParseScheme(
    const std::string& text) {
  if (text == "hash") return Scheme::kHash;
  if (text == "range") return Scheme::kRange;
  return Status::InvalidArgument("unknown partition scheme '" + text +
                                 "' (expected hash|range)");
}

const char* PartitionSchemeName(PartitionSpec::Scheme scheme) {
  switch (scheme) {
    case PartitionSpec::Scheme::kRange:
      return "range";
    case PartitionSpec::Scheme::kHash:
      return "hash";
  }
  return "unknown";
}

size_t ShardForRow(const PartitionSpec& spec, size_t num_rows, RowId row) {
  CAQP_CHECK(spec.num_shards > 0);
  CAQP_CHECK(row < num_rows);
  switch (spec.scheme) {
    case PartitionSpec::Scheme::kRange: {
      const size_t block = (num_rows + spec.num_shards - 1) / spec.num_shards;
      return row / block;
    }
    case PartitionSpec::Scheme::kHash:
      // One splitmix64 step: full-avalanche mix of the row id with the seed.
      return Mix64((row ^ spec.hash_seed) + kGoldenGamma) % spec.num_shards;
  }
  return 0;
}

std::vector<std::vector<RowId>> PartitionRows(const PartitionSpec& spec,
                                              size_t num_rows) {
  std::vector<std::vector<RowId>> out(spec.num_shards);
  for (size_t row = 0; row < num_rows; ++row) {
    out[ShardForRow(spec, num_rows, static_cast<RowId>(row))].push_back(
        static_cast<RowId>(row));
  }
  return out;
}

}  // namespace caqp::dist
