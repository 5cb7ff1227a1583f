// Pinned simulated outcomes for the default seed (1). A perf-only change
// to the library must reproduce every value byte for byte; a change that
// alters simulated behaviour updates these pins in its own commit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace htbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct Pin {
  const char* workload;
  std::vector<std::pair<std::string, std::uint64_t>> values;
};

inline const std::vector<Pin>& pins() {
  static const std::vector<Pin> table = {
      {"line64",
       {
        {"egress_frames", 1151400ull},
        {"tx_queue_depth", 16382ull},
        {"tx_queue_drops", 96874ull},
        {"captured_frames", 1135018ull},
        {"captured_bytes", 72641152ull},
        {"q_sent_bytes", 79889536ull},
        {"q_received_bytes", 0ull},
        {"template_fires", 1248359ull},
        {"asic_ingress", 1248498ull},
        {"asic_egress", 2496826ull},
        {"state_digest", 11531579258705256767ull}}},
      {"scan_linked",
       {
        {"alive_found", 30140ull},
        {"alive_truth", 30140ull},
        {"probes_sent", 131072ull},
        {"probes_received", 131072ull},
        {"synacks_sent", 30140ull},
        {"rsts_sent", 0ull},
        {"asic_ingress", 1591370ull},
        {"asic_egress", 1692404ull},
        {"state_digest", 11356407499126946833ull}}},
      {"l7_cps",
       {
        {"handshakes", 270336ull},
        {"syns_received", 270336ull},
        {"synacks_at_tester", 270336ull},
        {"tcb_high_water", 270336ull},
        {"backlog_drops", 0ull},
        {"overflow_drops", 0ull},
        {"fifo_overflows", 0ull},
        {"sim_ns", 8000000ull},
        {"server_fingerprint", 13378339507372542802ull},
        {"state_digest", 6997015634958378281ull}}},
      {"l7_rps",
       {
        {"responses_matched", 97824ull},
        {"tester_2xx", 49153ull},
        {"tester_4xx", 32287ull},
        {"tester_5xx", 16384ull},
        {"server_requests", 97843ull},
        {"server_2xx", 49153ull},
        {"server_4xx", 32306ull},
        {"server_5xx", 16384ull},
        {"pool_established", 16384ull},
        {"request_fires", 114233ull},
        {"server_fingerprint", 11384630324906101351ull},
        {"state_digest", 2348021736441036516ull}}},
  };
  return table;
}

}  // namespace htbench
