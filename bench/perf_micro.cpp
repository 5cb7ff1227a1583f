// Micro-benchmarks of the hot simulator paths (google-benchmark), plus the
// host cost of compiling an `ip_scan` task (the false-positive precompute).
//
// Not a paper figure and not a record: a developer tool that prints to
// stdout. End-to-end host-time claims go through htbench/ (BENCHMARK.json),
// which controls noise and records the host it ran on.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>

#include "apps/tasks.hpp"
#include "common.hpp"
#include "htpr/counter_store.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "ntapi/compiler.hpp"
#include "rmt/asic.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace ht;

void BM_ParsePacket(benchmark::State& state) {
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_tcp_packet(1, 2, 3, 4, 0x10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(pkt));
  }
}
BENCHMARK(BM_ParsePacket);

void BM_DeparseModified(benchmark::State& state) {
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_tcp_packet(1, 2, 3, 4, 0x10));
  auto phv = parser.parse(pkt);
  phv.set(net::FieldId::kTcpDport, 99);
  for (auto _ : state) {
    rmt::Parser::deparse(phv);
  }
}
BENCHMARK(BM_DeparseModified);

void BM_ChecksumFix(benchmark::State& state) {
  net::Packet pkt = net::make_tcp_packet(1, 2, 3, 4, 0x10, 0, 0,
                                         static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    net::fix_checksums(pkt);
  }
}
BENCHMARK(BM_ChecksumFix)->Arg(64)->Arg(1500);

void BM_ExactTableLookup(benchmark::State& state) {
  rmt::MatchActionTable table("t", {{net::FieldId::kUdpDport, rmt::MatchKind::kExact}}, 4096);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    table.add_entry({{rmt::KeyMatch{.value = i}}, 0, "a", nullptr});
  }
  const auto parser = rmt::Parser::default_graph();
  auto pkt = net::make_packet(net::make_udp_packet(1, 2, 3, 512));
  const auto phv = parser.parse(pkt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(phv));
  }
}
BENCHMARK(BM_ExactTableLookup);

void BM_CounterStoreUpdate(benchmark::State& state) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  htpr::CounterStoreConfig cfg;
  cfg.name = "bm";
  cfg.hash.key_fields = {net::FieldId::kIpv4Sip};
  cfg.hash.buckets = 1 << 14;
  htpr::CounterStore store(asic, cfg);
  rmt::Phv phv;
  phv.packet = net::make_packet(64);
  rmt::ActionContext ctx{phv, asic.registers(), asic.rng(), 0, nullptr};
  std::uint64_t i = 0;
  for (auto _ : state) {
    phv.set(net::FieldId::kIpv4Sip, i++ % 8192);
    benchmark::DoNotOptimize(store.update(ctx, 1));
    store.maintenance_pass(ctx);
  }
}
BENCHMARK(BM_CounterStoreUpdate);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue ev;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      ev.schedule_in(static_cast<sim::TimeNs>(i % 7), [] {});
    }
    ev.run_all();
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_RecirculationLoop(benchmark::State& state) {
  // End-to-end cost of one full recirculation (ingress+egress+loop).
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  auto& t = asic.ingress().add_table("loop", {}, 4);
  t.set_default("loop", [](rmt::ActionContext& ctx) {
    ctx.phv.intrinsic().dest = rmt::Destination::kUnicast;
    ctx.phv.intrinsic().ucast_port = rmt::SwitchAsic::kRecircPortBase;
  });
  asic.inject_from_cpu(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 64)));
  ev.run_until(sim::us(10));
  std::uint64_t prev = asic.recirculations();
  for (auto _ : state) {
    ev.run_until(ev.now() + 570);  // one RTT of simulated time
    benchmark::DoNotOptimize(asic.recirculations() - prev);
  }
}
BENCHMARK(BM_RecirculationLoop);

/// Host cost of `ntapi::Compiler::compile()` on an `ip_scan` task, which
/// the false-positive precompute dominates: one key per scanned address is
/// enumerated and run through the collision analysis (DESIGN.md section 16).
/// 2^17 addresses is the scan_linked benchmark's sweep; 2^22 lifts the
/// compiler's key-space cap to 2^22 so the whole precompute runs at the
/// scale of the default 4M cap (which would reject that space). Reports
/// median/min/max wall seconds over `reps`, CPU seconds per compile, and
/// the process's peak RSS after the series (ru_maxrss, a high-water mark:
/// the series runs first so the 2^17 figure is not inflated by later work).
void run_compile_series(int reps) {
  using namespace ht;
  using clock = std::chrono::steady_clock;
  bench::headline("ip_scan compile (false-positive precompute)",
                  "key-space enumeration + collision analysis, one key per address");
  for (const unsigned log2 : {17u, 22u}) {
    const std::uint32_t count = 1u << log2;
    const auto app = apps::ip_scan(0x0A000000, count, 80, {0}, /*interval_ns=*/0);
    ntapi::Compiler compiler;
    compiler.key_space_cap = std::max<std::size_t>(compiler.key_space_cap, count);
    std::vector<double> wall;
    double cpu = 0.0;
    std::size_t exact_keys = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = clock::now();
      const std::clock_t c0 = std::clock();
      const auto compiled = compiler.compile(app.task);
      cpu += static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
      wall.push_back(std::chrono::duration<double>(clock::now() - t0).count());
      const auto& cq = compiled.queries[app.q_alive.index];
      if (!cq.false_positive_free) bench::row("  WARNING: 2^%u space was not enumerated", log2);
      exact_keys = cq.exact_keys.size();
    }
    std::sort(wall.begin(), wall.end());
    const double median = wall[wall.size() / 2];
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    bench::row("  2^%u addresses: median %.3fs (min %.3f max %.3f) cpu %.3fs/compile, "
               "%zu exact keys, peak RSS %.1f MiB",
               log2, median, wall.front(), wall.back(), cpu / reps, exact_keys, peak_rss_mb);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  run_compile_series(5);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
