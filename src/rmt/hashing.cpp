#include "rmt/hashing.hpp"

#include <array>
#include <stdexcept>
#include <string>

#include "net/bytes.hpp"

namespace ht::rmt {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = make_crc_table();
  return table;
}

}  // namespace

std::uint32_t HashUnit::crc32(std::span<const std::uint8_t> bytes) const {
  std::uint32_t crc = 0xFFFFFFFFu ^ seed_;
  for (const std::uint8_t b : bytes) {
    crc = crc_table()[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t HashUnit::hash_fields(std::span<const std::uint64_t> values,
                                    std::span<const net::FieldId> fields, unsigned bits) const {
  if (values.size() != fields.size()) {
    throw std::invalid_argument("HashUnit::hash_fields: " + std::to_string(values.size()) +
                                " values for " + std::to_string(fields.size()) + " fields");
  }
  // Two requirements shape this function. (1) Raw CRC is linear over
  // GF(2): structured key spaces (exactly what test triggers generate —
  // ranges, arithmetic progressions) would produce massively correlated
  // outputs, so a multiplicative base + avalanche finalizer restores
  // uniformity. (2) Different seeds must behave as *independent* hash
  // functions (Tofino offers multiple CRC polynomials): deriving every
  // seed's output from one shared CRC would make a fingerprint collision
  // imply a bucket collision, corrupting the cuckoo/false-positive maths.
  std::uint64_t h = 1469598103934665603ull ^ (static_cast<std::uint64_t>(seed_) *
                                              0x9E3779B97F4A7C15ull);
  // FNV-1a over the crossbar bytes, streamed without a buffer: it runs on
  // every counter-store update and on every key of the compile-time
  // false-positive precompute.
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const unsigned width_bytes = (net::field_width(fields[i]) + 7) / 8;
    for (unsigned b = width_bytes; b-- > 0;) {
      h ^= (values[i] >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  const auto out = static_cast<std::uint32_t>(h);
  return bits >= 32 ? out : (out & static_cast<std::uint32_t>(net::low_mask(bits)));
}

}  // namespace ht::rmt
