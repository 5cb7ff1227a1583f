// Figure 17: exact-key-matching table size vs number of distinct flows.
//
// Paper: with a 16-bit digest, no more than ~3000 exact entries are needed
// for over 2M flows (39KB of memory); a 32-bit digest cuts the entry count
// dramatically at the cost of doubling per-entry memory.
#include "common.hpp"
#include "htpr/false_positive.hpp"

namespace {

using namespace ht;

/// `n` (sip, dip, sport) keys, row-major.
std::vector<std::uint64_t> flow_space(std::size_t n, std::uint32_t seed) {
  // Five-tuple-style keys: vary addresses and ports like a scan + web mix.
  std::vector<std::uint64_t> words;
  words.reserve(3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    words.push_back(0x0A000000u + static_cast<std::uint32_t>(i) + seed);
    words.push_back(0x30000000u + static_cast<std::uint32_t>(i * 131) % 1048576);
    words.push_back(1024 + i % 60000);
  }
  return words;
}

}  // namespace

int main() {
  const std::vector<net::FieldId> key_fields = {net::FieldId::kIpv4Sip, net::FieldId::kIpv4Dip,
                                                net::FieldId::kTcpSport};
  const std::size_t flow_counts[] = {10'000, 100'000, 500'000, 1'000'000, 2'000'000};

  for (const unsigned digest : {16u, 32u}) {
    bench::headline("Figure 17(" + std::string(digest == 16 ? "a" : "b") + "): " +
                        std::to_string(digest) + "-bit flow digest",
                    digest == 16 ? "<=3000 entries for 2M flows, ~39KB"
                                 : "far fewer entries, double per-entry memory");
    bench::row("%10s | %10s %10s %10s | %10s", "#flows", "64K bkts", "256K bkts", "1M bkts",
               "mem@256K");
    for (const auto n : flow_counts) {
      std::size_t entries[3];
      std::size_t mem = 0;
      int col = 0;
      for (const std::size_t buckets : {1u << 16, 1u << 18, 1u << 20}) {
        htpr::CounterHashParams hash;
        hash.key_fields = key_fields;
        hash.digest_bits = digest;
        hash.buckets = buckets;
        // Average over a few trials (the paper runs each experiment 20x);
        // different seeds model different hash configurations.
        std::size_t total = 0;
        const int trials = n >= 1'000'000 ? 2 : 4;
        for (int trial = 0; trial < trials; ++trial) {
          hash.fp_seed = 0x9E3779B9u + static_cast<std::uint32_t>(trial) * 101;
          hash.bucket_seed = 0x85EBCA6Bu + static_cast<std::uint32_t>(trial) * 211;
          const auto analysis =
              htpr::analyze_collisions(hash, flow_space(n, static_cast<std::uint32_t>(trial)),
                                       key_fields.size());
          total += analysis.exact_keys.size();
          if (buckets == (1u << 18)) mem = analysis.exact_table_bytes;
        }
        entries[col++] = total / static_cast<std::size_t>(trials);
      }
      bench::row("%10zu | %10zu %10zu %10zu | %8.1fKB", n, entries[0], entries[1], entries[2],
                 static_cast<double>(mem) / 1024.0);
    }
  }
  return 0;
}
