#include "common/bytes.h"

#include <cstring>

namespace caqp {

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

Status ByteReader::GetU8(uint8_t* out) {
  if (pos_ >= size_) return Status::DataLoss("truncated: u8");
  *out = data_[pos_++];
  return Status::OK();
}

Status ByteReader::GetVarint(uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::DataLoss("truncated: varint");
    if (shift >= 64) return Status::DataLoss("varint too long");
    uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = result;
  return Status::OK();
}

Status ByteReader::GetDouble(double* out) {
  if (size_ - pos_ < 8) return Status::DataLoss("truncated: double");
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

}  // namespace caqp
