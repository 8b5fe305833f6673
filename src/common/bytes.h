// Byte-oriented serialization for the two wire formats: the v0xCA plan
// encoding a basestation radios to motes (plan/plan_serde.h; the plan size
// zeta(P) in the paper's Section 2.4 is its length) and the v0xE5 shard
// reply (exec/result_serde.h). Integers use LEB128 varints so that small
// attribute ids and split values -- the common case on motes -- cost one
// byte.

#ifndef CAQP_COMMON_BYTES_H_
#define CAQP_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace caqp {

/// Append-only byte sink.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// IEEE-754 double, little-endian.
  void PutDouble(double v);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Sequential reader over a byte buffer. All getters return an error Status
/// (never abort) on truncated or malformed input, since plan bytes may arrive
/// over a (simulated) radio.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  Status GetU8(uint8_t* out);
  Status GetVarint(uint64_t* out);
  Status GetDouble(double* out);

  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace caqp

#endif  // CAQP_COMMON_BYTES_H_
