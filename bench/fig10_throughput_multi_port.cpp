// Figure 10: multi-port throughput.
//
//  (a) HyperTester: adding 100G ports keeps every port at line rate
//      (400Gbps with the testbed's four ports).
//  (b) MoonGen on eight 10G ports: ~10Gbps per core, 80Gbps with 8 cores.
//  (c) Sharded engine: eight independent single-port 100G testers placed
//      over 1/2/4/8 worker shards (the paper's one-port-per-core story, no
//      cross-shard links). The simulated packet count must not depend on
//      the shard count; the binary exits nonzero if it does.
//
// `--json <path>` records the (a) and (b) Gbps and the (c) packet counts.
#include <memory>
#include <vector>

#include "apps/tasks.hpp"
#include "baseline/moongen.hpp"
#include "common.hpp"
#include "core/cluster.hpp"

namespace {

/// Packets egressed by the eight-tester fig10(c) fleet on `nshards` shards
/// over a 2 ms window, each tester blasting 64B frames at line rate into a
/// count-only capture sink on its own shard.
std::uint64_t sharded_packets(std::size_t nshards) {
  using namespace ht;
  constexpr std::size_t kTesters = 8;
  TesterCluster cluster({.shards = nshards, .seed = 42});
  // Build the whole fleet's tasks first so auto_place can balance them;
  // equal line-rate workloads place round-robin.
  std::vector<apps::ThroughputTest> workload;
  workload.reserve(kTesters);
  std::vector<const ntapi::Task*> tasks;
  for (std::size_t t = 0; t < kTesters; ++t) {
    workload.push_back(apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0));
    tasks.push_back(&workload.back().task);
  }
  const std::vector<std::size_t> placement = cluster.auto_place(tasks);
  std::vector<std::unique_ptr<dut::Capture>> sinks;
  for (std::size_t t = 0; t < kTesters; ++t) {
    const std::size_t s = placement[t];
    TesterConfig cfg;
    cfg.asic.num_ports = 2;
    cfg.asic.port_rate_gbps = 100.0;
    cfg.asic.seed = 1 + t;
    auto& tester = cluster.add_tester(cfg, s);
    sinks.push_back(std::make_unique<dut::Capture>(cluster.shards().shard(s).ev(),
                                                   static_cast<std::uint16_t>(1000 + t), 100.0));
    sinks.back()->set_count_only(true);
    sinks.back()->attach(tester.asic().port(1));
    tester.load(workload[t].task);
    tester.start();
  }
  cluster.run_for(sim::ms(2));
  std::uint64_t packets = 0;
  for (std::size_t t = 0; t < cluster.size(); ++t) {
    packets += cluster.tester(t).asic().egress_packets();
  }
  return packets;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ht;

  bench::BenchJson json("fig10_throughput_multi_port", bench::parse_args(argc, argv).json);

  bench::headline("Figure 10(a): HyperTester multi-port (100G each, 64B)",
                  "line rate as ports are added; 400Gbps with 4 ports");
  bench::row("%8s %14s %16s", "ports", "total (Gbps)", "per-port (Gbps)");
  for (std::size_t nports = 1; nports <= 4; ++nports) {
    bench::Testbed tb(5, 100.0);
    std::vector<std::uint16_t> ports;
    for (std::size_t p = 1; p <= nports; ++p) ports.push_back(static_cast<std::uint16_t>(p));
    auto app = apps::throughput_test(0x02020202, 0x01010101, ports, 64, 0);
    tb.tester->load(app.task);
    tb.tester->start();
    tb.tester->run_for(sim::ms(2));
    double total = 0;
    for (const auto p : ports) total += tb.tester->asic().port(p).tx_line_rate_gbps();
    bench::row("%8zu %14.1f %16.1f", nports, total, total / static_cast<double>(nports));
    json.add("ht_100g_total_gbps_" + std::to_string(nports) + "ports", total, "gbps");
  }

  bench::headline("Figure 10(b): MoonGen multi-core (eight 10G ports, 64B)",
                  "~10Gbps per core; 80Gbps with 8 cores");
  const baseline::MoonGenModel mg;
  bench::row("%8s %14s", "cores", "total (Gbps)");
  for (std::size_t cores = 1; cores <= 8; ++cores) {
    const double total = mg.throughput_gbps(64, cores, 8, 10.0);
    bench::row("%8zu %14.1f", cores, total);
    json.add("mg_10g_total_gbps_" + std::to_string(cores) + "cores", total, "gbps");
  }

  bench::headline("Figure 10(c): sharded engine (8 testers x 100G, 64B, 2ms window)",
                  "one port per worker; the simulated result must not depend on the shard count");
  bench::row("%8s %12s", "shards", "packets");
  std::uint64_t first = 0;
  bool identical = true;
  for (const std::size_t nshards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const std::uint64_t packets = sharded_packets(nshards);
    if (nshards == 1) first = packets;
    identical = identical && packets == first;
    bench::row("%8zu %12llu", nshards, static_cast<unsigned long long>(packets));
    json.add("ht_sharded_packets_" + std::to_string(nshards) + "shards",
             static_cast<double>(packets), "packets");
  }
  if (!identical) std::fprintf(stderr, "fig10: packet count differs across shard counts\n");
  return json.write() && identical ? 0 : 1;
}
