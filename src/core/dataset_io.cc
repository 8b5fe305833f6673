#include "core/dataset_io.h"

#include <fstream>

#include "common/bytes.h"

namespace caqp {

namespace {

// "CAQPDS" + format version.
constexpr uint64_t kMagic = 0x43415150'44530001ULL;

}  // namespace

std::vector<uint8_t> SerializeDataset(const Dataset& dataset) {
  ByteWriter w;
  w.PutVarint(kMagic);
  const Schema& schema = dataset.schema();
  w.PutVarint(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    const AttributeSpec& spec = schema.attribute(static_cast<AttrId>(a));
    w.PutString(spec.name);
    w.PutVarint(spec.domain_size);
    w.PutDouble(spec.cost);
  }
  w.PutVarint(dataset.num_rows());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    for (Value v : dataset.column(static_cast<AttrId>(a))) {
      w.PutVarint(v);
    }
  }
  return w.bytes();
}

Result<Dataset> DeserializeDataset(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint64_t magic;
  CAQP_RETURN_IF_ERROR(r.GetVarint(&magic));
  if (magic != kMagic) return Status::DataLoss("bad dataset magic/version");

  uint64_t num_attrs;
  CAQP_RETURN_IF_ERROR(r.GetVarint(&num_attrs));
  if (num_attrs == 0 || num_attrs > kMaxAttributes) {
    return Status::DataLoss("attribute count out of range");
  }
  Schema schema;
  for (uint64_t a = 0; a < num_attrs; ++a) {
    std::string name;
    uint64_t domain;
    double cost;
    CAQP_RETURN_IF_ERROR(r.GetString(&name));
    CAQP_RETURN_IF_ERROR(r.GetVarint(&domain));
    CAQP_RETURN_IF_ERROR(r.GetDouble(&cost));
    if (domain < 2 || domain > 65536) {
      return Status::DataLoss("domain size out of range");
    }
    if (!(cost >= 0.0)) return Status::DataLoss("negative attribute cost");
    schema.AddAttribute(name, static_cast<uint32_t>(domain), cost);
  }

  uint64_t rows;
  CAQP_RETURN_IF_ERROR(r.GetVarint(&rows));
  std::vector<std::vector<Value>> columns(num_attrs);
  for (uint64_t a = 0; a < num_attrs; ++a) {
    columns[a].reserve(rows);
    const uint32_t domain = schema.domain_size(static_cast<AttrId>(a));
    for (uint64_t i = 0; i < rows; ++i) {
      uint64_t v;
      CAQP_RETURN_IF_ERROR(r.GetVarint(&v));
      if (v >= domain) return Status::DataLoss("value out of domain");
      columns[a].push_back(static_cast<Value>(v));
    }
  }
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes after dataset");

  Dataset out(schema);
  out.AppendColumns(columns);
  return out;
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  const std::vector<uint8_t> bytes = SerializeDataset(dataset);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::DataLoss("short write to " + path);
  return Status::OK();
}

Result<Dataset> LoadDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return DeserializeDataset(bytes);
}

}  // namespace caqp
