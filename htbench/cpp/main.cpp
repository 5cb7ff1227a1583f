// htbench_run: one run of one benchmark workload (see ../README.md).
//
//   htbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <chrome-trace.json>]
//
// Repeats the workload (fresh testbed each time) until `seconds` of host
// time have passed and prints one JSON line: the end-to-end metrics
// (medians over repetitions, in reference-host seconds: see host_probe.hpp)
// or, with --trace 1, the per-layer metrics of traced repetitions
// interleaved with untraced ones. Exits 1 when a simulated outcome is
// wrong, 2 on bad arguments.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "host_probe.hpp"
#include "pins.hpp"
#include "proc_stats.hpp"
#include "sim/snapshot.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace {

using htbench::Outcome;
using htbench::SpanRecorder;
using htbench::Workload;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Host cost of one repetition's timed window. Times are host seconds
/// with the probe's own time taken out.
struct RepSample {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// The timed window's length for the end-to-end rates: the calling
  /// thread's CPU time when the single-shard engine runs inline on it (so
  /// host steal does not count), else wall time (shard threads simulate
  /// and the window includes their barrier waits).
  double run_s = 0.0;
  double cpu_s = 0.0;
  double asic_pkts = 0.0;  ///< ingress + egress over every tester ASIC
  double ops = 0.0;        ///< completed workload operations
  double probe_s = 0.0;    ///< median host probe time over the slices
};

std::uint64_t asic_packets(Workload& w) {
  std::uint64_t n = 0;
  for (ht::HyperTester* t : w.testers()) {
    n += t->asic().ingress_packets() + t->asic().egress_packets();
  }
  return n;
}

std::uint64_t sum_counter(Workload& w, const std::string& name) {
  std::uint64_t total = 0;
  for (ht::HyperTester* t : w.testers()) total += htbench::sum_counter(t->metrics(), name);
  return total;
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "count";
};
/// Per-layer metrics of one traced repetition, in BENCHMARK.json order.
using Layers = std::vector<Metric>;

/// CPU of the threads that executed shards during the window: the worker
/// threads of a multi-shard group (new since `before`, in tid order), or
/// the calling thread for the inline single-shard engine.
std::vector<double> shard_busy_s(const std::vector<htbench::ThreadCpu>& before,
                                 const std::vector<htbench::ThreadCpu>& after,
                                 std::size_t shards) {
  const long self = static_cast<long>(getpid());
  std::map<long, double> start;
  for (const auto& t : before) start[t.tid] = t.cpu_s;
  std::vector<double> busy;
  for (const auto& t : after) {
    const bool worker = shards > 1 ? t.tid != self : t.tid == self;
    if (!worker) continue;
    const auto it = start.find(t.tid);
    busy.push_back(t.cpu_s - (it != start.end() ? it->second : 0.0));
  }
  return busy;
}

struct RepResult {
  RepSample sample;
  Outcome outcome;
  Layers layers;  ///< empty for untraced repetitions
};

RepResult run_rep(const std::string& name, std::uint64_t seed, htbench::HostProbe& probe,
                  SpanRecorder* tr) {
  RepResult r;
  const auto t_setup = Clock::now();
  std::unique_ptr<Workload> w = htbench::make_workload(name, seed);
  w->setup(tr);
  r.sample.setup_s = seconds_since(t_setup);

  // The host probe runs after every slice; its wall and CPU time are taken
  // out of the repetition's, and its median sets the repetition's host scale.
  std::vector<double> probe_cpu;
  double probe_wall = 0.0;
  w->set_between_slices([&] {
    const auto t = Clock::now();
    probe_cpu.push_back(probe.run());
    probe_wall += seconds_since(t);
  });

  std::vector<htbench::ThreadCpu> threads_before;
  if (tr != nullptr) threads_before = htbench::read_thread_cpu();
  ht::sim::ShardGroup& group = w->group();
  const std::uint64_t events0 = group.total_executed();
  const std::uint64_t pkts0 = asic_packets(*w);
  const double cpu0 = htbench::process_cpu_s();
  const double thread0 = htbench::thread_cpu_s();
  const auto t_run = Clock::now();
  {
    SpanRecorder::Scope s(tr, "timed_run", "sim");
    w->run(tr);
  }
  double probe_cpu_total = 0.0;
  for (const double p : probe_cpu) probe_cpu_total += p;
  r.sample.wall_s = seconds_since(t_run) - probe_wall;
  r.sample.run_s = group.size() == 1 ? htbench::thread_cpu_s() - thread0 - probe_cpu_total
                                     : r.sample.wall_s;
  r.sample.cpu_s = htbench::process_cpu_s() - cpu0 - probe_cpu_total;
  r.sample.probe_s = median(probe_cpu);
  std::vector<htbench::ThreadCpu> threads_after;
  if (tr != nullptr) threads_after = htbench::read_thread_cpu();
  const std::uint64_t events = group.total_executed() - events0;
  r.sample.asic_pkts = static_cast<double>(asic_packets(*w) - pkts0);

  r.outcome = w->outcome(tr);
  r.sample.ops = static_cast<double>(r.outcome.completed);
  if (tr == nullptr) return r;

  // --- per-layer metrics (traced repetitions only) -------------------------
  const auto add = [&r](std::string metric, double value, const char* unit) {
    r.layers.push_back({std::move(metric), value, unit});
  };
  const double pkts = r.sample.asic_pkts;
  double compile_s = 0.0;
  {
    SpanRecorder::Scope s(tr, "compile", "ntapi");
    ht::ntapi::Compiler compiler(w->asic_config());
    const ht::ntapi::CompiledTask compiled = compiler.compile(w->task());
    compile_s = s.end();
  }
  add("ntapi.compile_s", compile_s, "s");
  add("core.build_s", tr->seconds("build_testbed"), "s");
  add("core.load_s", tr->seconds("load"), "s");
  add("core.start_s", tr->seconds("start"), "s");

  const auto slab = group.aggregate_slab_stats();
  add("sim.events", static_cast<double>(events), "count");
  add("sim.events_per_pkt", ratio(static_cast<double>(events), pkts), "ratio");
  add("sim.host_ns_per_event", ratio(r.sample.wall_s * 1e9, static_cast<double>(events)), "ns");
  add("sim.slab_hit_rate",
      ratio(static_cast<double>(slab.hits), static_cast<double>(slab.hits + slab.misses)),
      "ratio");
  add("sim.slab_high_water", static_cast<double>(slab.high_water), "count");
  add("sim.heap_closures", static_cast<double>(slab.heap_closures), "count");

  const auto sync = group.sync_stats();
  add("shard.epochs", static_cast<double>(sync.epochs), "count");
  add("shard.handoffs", static_cast<double>(sync.handoffs), "count");
  add("shard.handoffs_copied", static_cast<double>(sync.handoffs_copied), "count");
  add("shard.backpressure", static_cast<double>(sync.backpressure), "count");
  add("shard.host_us_per_epoch", ratio(r.sample.wall_s * 1e6, static_cast<double>(sync.epochs)),
      "us");
  std::vector<double> busy = shard_busy_s(threads_before, threads_after, group.size());
  // The inline engine's worker is the calling thread, which also ran the probe.
  if (group.size() == 1 && !busy.empty()) busy[0] = std::max(0.0, busy[0] - probe_cpu_total);
  for (std::size_t i = 0; i < 2; ++i) {
    const double b = i < busy.size() ? busy[i] : 0.0;
    const double wait = i < busy.size() ? std::max(0.0, r.sample.wall_s - b) : 0.0;
    add("shard.w" + std::to_string(i) + ".busy_s", b, "s");
    add("shard.w" + std::to_string(i) + ".wait_s", wait, "s");
  }

  const auto pool = group.aggregate_pool_stats();
  add("net.pool_acquires_per_pkt", ratio(static_cast<double>(pool.hits + pool.misses), pkts),
      "ratio");
  add("net.pool_hit_rate",
      ratio(static_cast<double>(pool.hits), static_cast<double>(pool.hits + pool.misses)),
      "ratio");
  add("net.pool_high_water", static_cast<double>(pool.high_water), "count");

  double ingress = 0.0, replicas = 0.0, recircs = 0.0, fires = 0.0, matched = 0.0,
         evictions = 0.0, digests = 0.0, series = 0.0;
  for (ht::HyperTester* t : w->testers()) {
    ingress += static_cast<double>(t->asic().ingress_packets());
    replicas += static_cast<double>(t->asic().replicas_created());
    recircs += static_cast<double>(t->asic().recirculations());
    for (std::uint32_t tid = 0; tid < t->sender().template_count(); ++tid) {
      fires += static_cast<double>(t->sender().fires(tid));
    }
    for (std::size_t q = 0; q < t->receiver().query_count(); ++q) {
      matched += static_cast<double>(t->receiver().matched(q));
      if (const auto* store = t->receiver().store(q)) {
        evictions += static_cast<double>(store->cpu_evictions());
      }
    }
    digests += static_cast<double>(t->controller().digest_count());
  }
  add("rmt.replicas_per_pkt", ratio(replicas, ingress), "ratio");
  add("rmt.recirculations", recircs, "count");
  add("rmt.fastpath_share",
      ratio(static_cast<double>(sum_counter(*w, "ht_fastpath_fused_pkts_total")),
            static_cast<double>(asic_packets(*w))),
      "ratio");
  add("rmt.pipeline_drops",
      static_cast<double>(sum_counter(*w, "ht_asic_pipeline_drops_total")), "count");
  add("htps.fires", fires, "count");
  add("htpr.matched", matched, "count");
  add("htpr.cpu_evictions", evictions, "count");
  add("switchcpu.digests", digests, "count");
  add("switchcpu.digest_drops",
      static_cast<double>(sum_counter(*w, "ht_asic_digest_drops_total")), "count");
  add("stateless.fifo_overflows",
      static_cast<double>(sum_counter(*w, "ht_regfifo_overflows_total")), "count");

  const auto* server = w->server();
  const ht::dut::stateful::TcbStats tcb = server ? server->tcb().stats()
                                                 : ht::dut::stateful::TcbStats{};
  add("dut.tcb_inserted", static_cast<double>(tcb.inserted), "count");
  add("dut.tcb_high_water", static_cast<double>(tcb.high_water), "count");
  add("dut.tcb_drops", static_cast<double>(tcb.backlog_drops + tcb.overflow_drops), "count");
  add("dut.requests", server ? static_cast<double>(server->requests_served()) : 0.0, "count");
  add("dut.responses",
      server ? static_cast<double>(server->responses_2xx() + server->responses_4xx() +
                                   server->responses_5xx())
             : 0.0,
      "count");

  double export_s = 0.0;
  {
    SpanRecorder::Scope s(tr, "telemetry_report", "telemetry");
    for (ht::HyperTester* t : w->testers()) {
      const ht::telemetry::Report report = t->telemetry_report();
      series += static_cast<double>(t->metrics().size());
    }
    export_s = s.end();
  }
  add("telemetry.export_s", export_s, "s");
  add("telemetry.series", series, "count");

  double snapshot_bytes = 0.0;
  {
    SpanRecorder::Scope s(tr, "write_state", "snapshot");
    ht::sim::SnapshotWriter writer;
    w->write_state(writer);
    snapshot_bytes = static_cast<double>(writer.finish().size());
  }
  add("snapshot.digest_s", tr->seconds("state_digest"), "s");
  add("snapshot.bytes", snapshot_bytes, "bytes");
  return r;
}

struct Args {
  std::string workload;
  std::uint64_t seed = htbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || a.seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

/// Bind the process to the CPU it is running on; threads started later
/// (shard workers) inherit the binding. On a shared VM a wake-up across
/// vCPUs costs tens of microseconds to milliseconds depending on host load,
/// and scan_linked's ~500 barrier epochs per repetition made its wall time
/// follow that rather than the program: 3.0-5.0M pkts/s between runs on
/// four vCPUs against 4.3-4.5M on one. On one CPU the barrier is a plain
/// context switch, and the host probe runs where the workload runs.
/// Returns the CPU, or -1 when it could not be bound.
int bind_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string metric_json(const std::vector<Metric>& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + m[i].name + "\": {\"value\": " + json_number(m[i].value) +
           ", \"unit\": \"" + m[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) || htbench::make_workload(args.workload, 0) == nullptr) {
    std::fprintf(stderr,
                 "usage: htbench_run --workload <line64|scan_linked|l7_cps|l7_rps> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }

  const int cpu = bind_to_current_cpu();

  const htbench::Pin* pin = nullptr;
  if (args.seed == htbench::kDefaultSeed) {
    for (const auto& p : htbench::pins()) {
      if (args.workload == p.workload) pin = &p;
    }
  }

  SpanRecorder recorder;
  htbench::HostProbe probe;
  std::vector<RepSample> plain;   // untraced repetitions
  std::vector<RepSample> traced;  // traced repetitions
  std::vector<Layers> layers;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::uint64_t>> first_values;

  const auto t0 = Clock::now();
  double longest_rep = 0.0;
  for (std::uint32_t rep = 0;; ++rep) {
    // Traced runs interleave untraced and traced repetitions so the
    // overhead ratio compares neighbours in time.
    const bool traced_rep = args.trace && rep % 2 == 1;
    const auto t_rep = Clock::now();
    recorder.set_rep(static_cast<std::uint32_t>(traced.size()));
    RepResult r = run_rep(args.workload, args.seed, probe, traced_rep ? &recorder : nullptr);
    attempted += r.outcome.attempted;
    failed += r.outcome.attempted - std::min(r.outcome.completed, r.outcome.attempted);
    for (const auto& v : r.outcome.violations) violations.push_back(v);
    if (rep == 0) {
      first_values = r.outcome.values;
      if (pin != nullptr && pin->values != first_values) {
        violations.push_back("simulated outcome differs from the pinned default-seed values");
      }
    } else if (r.outcome.values != first_values) {
      violations.push_back("repetition " + std::to_string(rep) +
                           " simulated a different outcome than repetition 0");
    }
    if (traced_rep) {
      traced.push_back(r.sample);
      layers.push_back(std::move(r.layers));
    } else {
      plain.push_back(r.sample);
    }
    // Stop before a repetition that would overrun the measuring time, so
    // a run takes `seconds` whatever the repetition length.
    longest_rep = std::max(longest_rep, seconds_since(t_rep));
    const bool enough = !plain.empty() && (!args.trace || !traced.empty());
    if (enough && seconds_since(t0) + longest_rep > args.seconds) break;
  }
  const bool correct = violations.empty();
  if (!correct) failed = attempted;

  const auto series = [](const std::vector<RepSample>& v, auto f) {
    std::vector<double> out;
    for (const auto& s : v) out.push_back(f(s));
    return out;
  };
  // Host seconds per reference-host second in a repetition (host_probe.hpp);
  // rates and times are in reference-host seconds (host seconds / scale).
  const double sensitivity = htbench::make_workload(args.workload, 0)->host_sensitivity();
  const auto scale = [&](const RepSample& s) {
    return htbench::host_scale(s.probe_s, sensitivity);
  };
  const auto pps = [&](const RepSample& s) { return ratio(s.asic_pkts, s.run_s) * scale(s); };
  const auto ops_per_s = [&](const RepSample& s) { return ratio(s.ops, s.run_s) * scale(s); };
  const auto cpu_per_mpkt = [&](const RepSample& s) {
    return ratio(s.cpu_s, s.asic_pkts / 1e6) / scale(s);
  };
  const auto setup = [&](const RepSample& s) { return s.setup_s / scale(s); };
  const auto raw_pps = [](const RepSample& s) { return ratio(s.asic_pkts, s.run_s); };
  const auto raw_setup = [](const RepSample& s) { return s.setup_s; };
  const auto rep_probe = [](const RepSample& s) { return s.probe_s; };

  std::string metrics;
  if (!args.trace) {
    metrics = metric_json({
        {"pkts_per_s", median(series(plain, pps)), "1/s"},
        {"ops_per_s", median(series(plain, ops_per_s)), "1/s"},
        {"cpu_s_per_mpkt", median(series(plain, cpu_per_mpkt)), "s"},
        {"setup_s", median(series(plain, setup)), "s"},
        {"peak_rss_mb", htbench::peak_rss_mb(), "MiB"},
    });
  } else {
    // Timings: median over traced repetitions; counts repeat exactly.
    std::vector<Metric> m;
    for (std::size_t i = 0; i < layers.front().size(); ++i) {
      std::vector<double> v;
      for (const Layers& rep : layers) v.push_back(rep[i].value);
      m.push_back({layers.front()[i].name, median(v), layers.front()[i].unit});
    }
    m.push_back({"trace.overhead", ratio(median(series(traced, pps)), median(series(plain, pps))),
                 "ratio"});
    metrics = metric_json(m);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << recorder.chrome_trace_json(metrics);
    }
  }

  std::string outcome = "{";
  for (std::size_t i = 0; i < first_values.size(); ++i) {
    if (i != 0) outcome += ", ";
    outcome += "\"" + first_values[i].first + "\": " + std::to_string(first_values[i].second);
  }
  outcome += "}";
  std::string viol = "[";
  for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
    if (i != 0) viol += ", ";
    viol += "\"" + violations[i] + "\"";
  }
  viol += "]";
  const auto json_array = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_number(v[i]);
    return out + "]";
  };
  // Per-repetition host-second figures, before scaling.
  const std::string samples = "{\"pkts_per_s\": " + json_array(series(plain, raw_pps)) +
                              ", \"setup_s\": " + json_array(series(plain, raw_setup)) +
                              ", \"probe_s\": " + json_array(series(plain, rep_probe)) + "}";

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"cpu\": %d, "
      "\"probe_s\": %s, \"host_scale\": %s, \"reps\": %zu, "
      "\"traced_reps\": %zu, \"elapsed_s\": %.3f, \"build_type\": \"%s\", \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"violations\": %s, \"outcome\": %s, "
      "\"samples\": %s, \"metrics\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, cpu,
      json_number(median(series(plain, rep_probe))).c_str(),
      json_number(median(series(plain, scale))).c_str(), plain.size(), traced.size(),
      seconds_since(t0), HTBENCH_BUILD_TYPE,
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), viol.c_str(), outcome.c_str(), samples.c_str(),
      metrics.c_str());
  return correct ? 0 : 1;
}
