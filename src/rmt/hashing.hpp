// Hash units of the ASIC: CRC-based, as in Tofino.
//
// HTPR's counter store (cuckoo hashing, digests) and the NTAPI compiler's
// offline false-positive enumeration must agree bit-for-bit on these
// functions, which is why they live in the substrate and are pure.
#pragma once

#include <cstdint>
#include <span>

#include "net/fields.hpp"

namespace ht::rmt {

/// CRC32 (reflected, poly 0xEDB88720 family) over a byte stream with a
/// configurable seed, truncated to `bits`.
class HashUnit {
 public:
  explicit HashUnit(std::uint32_t seed = 0) : seed_(seed) {}

  std::uint32_t crc32(std::span<const std::uint8_t> bytes) const;

  /// Hash a list of field values: each value contributes width/8 (rounded
  /// up) big-endian bytes, mirroring how the hardware crossbar feeds the
  /// hash engine. Throws std::invalid_argument unless there is exactly one
  /// value per field.
  std::uint32_t hash_fields(std::span<const std::uint64_t> values,
                            std::span<const net::FieldId> fields, unsigned bits) const;

  std::uint32_t seed() const { return seed_; }

 private:
  std::uint32_t seed_;
};

}  // namespace ht::rmt
