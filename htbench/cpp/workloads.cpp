#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "apps/tasks.hpp"
#include "core/cluster.hpp"
#include "dut/capture.hpp"
#include "dut/scan_targets.hpp"

namespace htbench {

using ht::sim::TimeNs;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t sum_counter(const ht::telemetry::MetricsRegistry& m, const std::string& name) {
  std::uint64_t total = 0;
  m.for_each([&](const ht::telemetry::MetricsRegistry::Entry& e) {
    if (e.kind == ht::telemetry::MetricsRegistry::Kind::kCounter && e.name == name) {
      total += e.counter_value();
    }
  });
  return total;
}

namespace {

// Seed streams; fixed so that a seed means the same testbed forever.
constexpr std::uint64_t kStreamEngine = 0;
constexpr std::uint64_t kStreamAsic = 1;
constexpr std::uint64_t kStreamTargets = 2;
constexpr std::uint64_t kStreamServer = 3;

/// Advance the group `total` ns of sim time in slices of at most 1 ms, one
/// traced run_for span per slice, calling `between` after each slice.
void run_slices(ht::sim::ShardGroup& group, TimeNs total, SpanRecorder* tr,
                const std::function<void()>& between) {
  for (TimeNs done = 0; done < total;) {
    const TimeNs slice = std::min<TimeNs>(ht::sim::ms(1), total - done);
    {
      SpanRecorder::Scope s(tr, "run_for", "sim");
      group.run_until(group.now() + slice);
    }
    done += slice;
    if (between) between();
  }
}

/// Compile + install the task, then inject its templates.
void load_and_start(ht::HyperTester& tester, const ht::ntapi::Task& task, SpanRecorder* tr) {
  {
    SpanRecorder::Scope s(tr, "load", "core");
    tester.load(task);
  }
  SpanRecorder::Scope s(tr, "start", "core");
  tester.start();
}

/// The public one-number state fingerprint, timed as its own span.
template <class Testbed>
std::uint64_t state_digest(Testbed& t, SpanRecorder* tr) {
  SpanRecorder::Scope s(tr, "state_digest", "snapshot");
  return t.state_digest();
}

// ---------------------------------------------------------------------------
// line64: Fig. 9(a) throughput_test, 64 B frames at line rate on one 100G
// port into a count-only capture, one tester, one shard, fused fast path.
class Line64 final : public Workload {
 public:
  static constexpr TimeNs kWindow = ht::sim::ms(8);

  explicit Line64(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder* tr) override {
    {
      SpanRecorder::Scope s(tr, "build_testbed", "core");
      ht::TesterConfig cfg;
      cfg.asic = asic_config();
      cfg.seed = derive_seed(seed_, kStreamEngine);
      tester_ = std::make_unique<ht::HyperTester>(cfg);
      sink_ = std::make_unique<ht::dut::Capture>(tester_->events(), 1001, 100.0);
      sink_->set_count_only(true);
      sink_->attach(tester_->asic().port(1));
      app_ = ht::apps::throughput_test(0x02020202, 0x01010101, {1}, 64, 0);
    }
    load_and_start(*tester_, app_->task, tr);
  }

  void run(SpanRecorder* tr) override { run_slices(group(), kWindow, tr, between_slices_); }

  Outcome outcome(SpanRecorder* tr) override {
    Outcome o;
    const ht::sim::Port& port = tester_->asic().port(1);
    std::uint64_t sent_bytes = 0;
    std::uint64_t received_bytes = 0;
    {
      SpanRecorder::Scope s(tr, "query_read", "htpr");
      sent_bytes = tester_->query_total(app_->q_sent);
      received_bytes = tester_->query_total(app_->q_received);
    }
    const double gbps = port.tx_line_rate_gbps();
    // The generator outpaces the wire, so the port's TX queue stays full;
    // a frame counts as offered once it has left the queue.
    o.attempted = port.tx_packets() - port.tx_queue_depth();
    o.completed = std::min(sink_->counted(), o.attempted);
    o.values = {{"egress_frames", port.tx_packets()},
                {"tx_queue_depth", port.tx_queue_depth()},
                {"tx_queue_drops", port.dropped_queue_full()},
                {"captured_frames", sink_->counted()},
                {"captured_bytes", sink_->bytes()},
                {"q_sent_bytes", sent_bytes},
                {"q_received_bytes", received_bytes},
                {"template_fires", tester_->trigger_fires(app_->t1)},
                {"asic_ingress", tester_->asic().ingress_packets()},
                {"asic_egress", tester_->asic().egress_packets()},
                {"state_digest", state_digest(*tester_, tr)}};
    o.expect(sink_->counted() == o.attempted, "capture count != frames sent on port 1");
    o.expect(sink_->bytes() == sink_->counted() * 64, "captured frames are not all 64 B");
    o.expect(gbps >= 99.0, "port 1 below 100G line rate: " + std::to_string(gbps) + " Gbps");
    return o;
  }

  ht::sim::ShardGroup& group() override { return tester_->shard_group(); }
  std::vector<ht::HyperTester*> testers() override { return {tester_.get()}; }
  const ht::ntapi::Task& task() const override { return app_->task; }
  ht::rmt::AsicConfig asic_config() const override {
    ht::rmt::AsicConfig a;
    a.num_ports = 2;
    a.port_rate_gbps = 100.0;
    a.num_recirc_channels = 1;
    a.seed = derive_seed(seed_, kStreamAsic);
    return a;
  }
  void write_state(ht::sim::SnapshotWriter& w) override { tester_->write_state(w, "t0"); }
  /// 213 repetitions: 1.69, correlation 0.90.
  double host_sensitivity() const override { return 1.7; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ht::HyperTester> tester_;
  std::unique_ptr<ht::dut::Capture> sink_;
  std::optional<ht::apps::ThroughputTest> app_;
};

// ---------------------------------------------------------------------------
// scan_linked: ip_scan SYN sweep at line rate over a 131,072-address block;
// the wire crosses a shard link to the ScanTargets population on shard 1.
class ScanLinked final : public Workload {
 public:
  static constexpr std::uint32_t kBase = 0x0A000000;  // 10.0.0.0/15
  static constexpr std::uint32_t kCount = 1u << 17;
  /// The sweep ends after ~0.9 ms; the rest lets the eviction-digest
  /// channel drain so the distinct count is exact when read (1 ms after
  /// the sweep it is still short by a dozen or so).
  static constexpr TimeNs kWindow = ht::sim::ms(10);
  /// ~4 km of fiber to the scanned network. The link sets the epoch
  /// length (lookahead), so a window runs ~500 barrier epochs; at the
  /// 500 ns default it runs ~20,000 and host time is then mostly
  /// cross-thread wake-ups, which drift by 4x on a shared host.
  static constexpr TimeNs kLinkPropagationNs = 20'000;

  explicit ScanLinked(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanRecorder* tr) override {
    {
      SpanRecorder::Scope s(tr, "build_testbed", "core");
      cluster_ = std::make_unique<ht::TesterCluster>(
          ht::ClusterConfig{.shards = 2, .seed = derive_seed(seed_, kStreamEngine)});
      ht::TesterConfig cfg;
      cfg.asic = asic_config();
      tester_ = &cluster_->add_tester(cfg, 0);
      ht::dut::ScanTargets::Config tc;
      tc.subnet = kBase;
      tc.subnet_mask = 0xFFFE0000;
      tc.alive_fraction = 0.23;
      tc.open_port = 80;
      tc.seed = derive_seed(seed_, kStreamTargets);
      targets_ =
          std::make_unique<ht::dut::ScanTargets>(cluster_->shards().shard(1).ev(), tc);
      cluster_->shards().connect(tester_->asic().port(1), 0, targets_->port(), 1,
                                 kLinkPropagationNs);
      app_ = ht::apps::ip_scan(kBase, kCount, 80, {1}, /*interval_ns=*/0, /*loops=*/1);
    }
    load_and_start(*tester_, app_->task, tr);
  }

  void run(SpanRecorder* tr) override { run_slices(group(), kWindow, tr, between_slices_); }

  Outcome outcome(SpanRecorder* tr) override {
    Outcome o;
    std::uint64_t found = 0;
    {
      SpanRecorder::Scope s(tr, "query_read", "htpr");
      found = tester_->query_distinct(app_->q_alive);
    }
    const std::uint64_t truth = targets_->alive_in_range(kBase, kBase + kCount - 1);
    o.attempted = truth;
    o.completed = std::min(found, truth);
    o.values = {{"alive_found", found},
                {"alive_truth", truth},
                {"probes_sent", tester_->trigger_fires(app_->probe)},
                {"probes_received", targets_->probes_received()},
                {"synacks_sent", targets_->synacks_sent()},
                {"rsts_sent", targets_->rsts_sent()},
                {"asic_ingress", tester_->asic().ingress_packets()},
                {"asic_egress", tester_->asic().egress_packets()},
                {"state_digest", state_digest(*cluster_, tr)}};
    o.expect(found == truth, "distinct responders " + std::to_string(found) +
                                 " != alive targets " + std::to_string(truth));
    o.expect(tester_->trigger_done(app_->probe), "sweep did not finish");
    o.expect(targets_->probes_received() == kCount, "targets did not see every probe");
    o.expect(targets_->synacks_sent() == truth, "SYN+ACKs sent != alive targets");
    return o;
  }

  ht::sim::ShardGroup& group() override { return cluster_->shards(); }
  std::vector<ht::HyperTester*> testers() override { return {tester_}; }
  const ht::ntapi::Task& task() const override { return app_->task; }
  ht::rmt::AsicConfig asic_config() const override {
    ht::rmt::AsicConfig a;
    a.num_ports = 2;
    a.port_rate_gbps = 100.0;
    a.seed = derive_seed(seed_, kStreamAsic);
    return a;
  }
  void write_state(ht::sim::SnapshotWriter& w) override { cluster_->write_state(w); }
  /// 259 repetitions: 1.34, correlation 0.92.
  double host_sensitivity() const override { return 1.3; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<ht::TesterCluster> cluster_;
  ht::HyperTester* tester_ = nullptr;
  std::unique_ptr<ht::dut::ScanTargets> targets_;
  std::optional<ht::apps::IpScan> app_;
};

// ---------------------------------------------------------------------------
// Shared L7 testbed: one tester, a WorkloadServer behind `server_ports`
// tester ports (1..n), inline on one shard.
class L7Base : public Workload {
 public:
  ht::sim::ShardGroup& group() override { return tester_->shard_group(); }
  std::vector<ht::HyperTester*> testers() override { return {tester_.get()}; }
  const ht::dut::stateful::WorkloadServer* server() const override { return server_.get(); }
  void write_state(ht::sim::SnapshotWriter& w) override { tester_->write_state(w, "t0"); }
  ht::rmt::AsicConfig asic_config() const override { return asic_; }

 protected:
  L7Base(std::uint64_t seed, std::size_t server_ports, std::size_t recirc_channels)
      : seed_(seed), server_ports_(server_ports) {
    asic_.num_ports = server_ports + 1;
    asic_.port_rate_gbps = 100.0;
    asic_.num_recirc_channels = recirc_channels;
    asic_.seed = derive_seed(seed, kStreamAsic);
  }

  void build(ht::dut::stateful::WorkloadConfig wcfg) {
    ht::TesterConfig cfg;
    cfg.asic = asic_;
    cfg.seed = derive_seed(seed_, kStreamEngine);
    tester_ = std::make_unique<ht::HyperTester>(cfg);
    wcfg.num_ports = server_ports_;
    wcfg.tcb.seed = derive_seed(seed_, kStreamServer);
    server_ = std::make_unique<ht::dut::stateful::WorkloadServer>(tester_->events(), wcfg);
    for (std::size_t i = 0; i < server_ports_; ++i) {
      server_->attach(i, tester_->asic().port(static_cast<std::uint16_t>(1 + i)));
    }
    server_->start();
  }

  std::uint64_t seed_;
  std::size_t server_ports_;
  ht::rmt::AsicConfig asic_;
  std::unique_ptr<ht::HyperTester> tester_;
  std::unique_ptr<ht::dut::stateful::WorkloadServer> server_;
};

// l7_cps: http_cps ramping SYNs on four ports into the TCB store (2M slots,
// preallocated) until every client has completed its handshake.
class L7Cps final : public L7Base {
 public:
  static constexpr std::uint32_t kClientsPerPort = 270'336 / 4;
  static constexpr std::uint64_t kClients = 4ull * kClientsPerPort;
  static constexpr int kMaxSlices = 60;

  explicit L7Cps(std::uint64_t seed) : L7Base(seed, 4, 5) {}

  void setup(SpanRecorder* tr) override {
    {
      SpanRecorder::Scope s(tr, "build_testbed", "core");
      ht::dut::stateful::WorkloadConfig wcfg;
      wcfg.tcb.capacity = std::size_t{1} << 21;
      wcfg.tcb.listen_backlog = std::size_t{1} << 21;  // a CPS test, not a flood test
      wcfg.tcb.idle_timeout_ns = 0;                    // connections accumulate
      build(wcfg);
      // Per-port ramp 2.5M -> 5M -> 10M SYN/s.
      app_ = ht::apps::http_cps(0x0C0C0C0C, 80, 0x0A000000, kClientsPerPort, {1, 2, 3, 4},
                                {{500'000, 400}, {500'000, 200}, {0, 100}});
    }
    load_and_start(*tester_, app_->task, tr);
  }

  void run(SpanRecorder* tr) override {
    for (int i = 0; i < kMaxSlices && server_->handshakes_completed() < kClients; ++i) {
      run_slices(group(), ht::sim::ms(1), tr, between_slices_);
    }
  }

  Outcome outcome(SpanRecorder* tr) override {
    Outcome o;
    std::uint64_t synacks = 0;
    {
      SpanRecorder::Scope s(tr, "query_read", "htpr");
      synacks = tester_->query_matched(app_->q_synack);
    }
    const auto& st = server_->tcb().stats();
    const std::uint64_t handshakes = server_->handshakes_completed();
    const std::uint64_t overflows =
        sum_counter(tester_->metrics(), "ht_regfifo_overflows_total");
    o.attempted = kClients;
    o.completed = std::min(handshakes, kClients);
    o.values = {{"handshakes", handshakes},
                {"syns_received", server_->syns_received()},
                {"synacks_at_tester", synacks},
                {"tcb_high_water", st.high_water},
                {"backlog_drops", st.backlog_drops},
                {"overflow_drops", st.overflow_drops},
                {"fifo_overflows", overflows},
                {"sim_ns", group().now()},
                {"server_fingerprint", server_->fingerprint()},
                {"state_digest", state_digest(*tester_, tr)}};
    o.expect(handshakes == kClients, "handshakes " + std::to_string(handshakes) +
                                         " != clients " + std::to_string(kClients));
    o.expect(st.backlog_drops == 0 && st.overflow_drops == 0, "TCB store dropped SYNs");
    o.expect(st.high_water == kClients, "TCB high water != clients");
    o.expect(synacks == kClients, "SYN+ACKs at tester != clients");
    o.expect(overflows == 0, "trigger FIFO overflowed");
    return o;
  }

  const ht::ntapi::Task& task() const override { return app_->task; }
  /// 79 repetitions: 1.00, correlation 0.90.
  double host_sensitivity() const override { return 1.0; }

 private:
  std::optional<ht::apps::HttpCps> app_;
};

// l7_rps: http_rps over a 16,384-connection pool; the server answers every
// 3rd request on a connection 404 and every 5th 503 (503 wins on both).
class L7Rps final : public L7Base {
 public:
  static constexpr std::uint32_t kPool = 16'384;
  static constexpr std::uint32_t kClientBase = 0x0B000000;
  static constexpr TimeNs kWindow = ht::sim::ms(12);
  /// Responses the server sent this long before the window closes have
  /// all reached the tester by the close (service + wire << 50 us).
  static constexpr TimeNs kSettle = ht::sim::us(50);
  static constexpr std::uint32_t kServerErrorEvery = 5;
  static constexpr std::uint32_t kNotFoundEvery = 3;

  explicit L7Rps(std::uint64_t seed) : L7Base(seed, 1, 3) {}

  void setup(SpanRecorder* tr) override {
    {
      SpanRecorder::Scope s(tr, "build_testbed", "core");
      ht::dut::stateful::WorkloadConfig wcfg;
      wcfg.server_error_every = kServerErrorEvery;
      wcfg.not_found_every = kNotFoundEvery;
      build(wcfg);
      // Pool opened at 5M conn/s, then 10M req/s cycling it.
      app_ = ht::apps::http_rps(0x0C0C0C0C, 80, kClientBase, kPool, {1},
                                /*request_interval_ns=*/100, /*open_interval_ns=*/200);
    }
    load_and_start(*tester_, app_->task, tr);
  }

  void run(SpanRecorder* tr) override {
    run_slices(group(), kWindow - kSettle, tr, between_slices_);
    settled_ = {server_->responses_2xx(), server_->responses_4xx(), server_->responses_5xx()};
    run_slices(group(), kSettle, tr, between_slices_);
  }

  Outcome outcome(SpanRecorder* tr) override {
    Outcome o;
    std::uint64_t matched = 0;
    std::array<std::uint64_t, 3> classes{};
    {
      SpanRecorder::Scope s(tr, "query_read", "htpr");
      matched = tester_->query_matched(app_->q_resp);
      for (std::size_t c = 0; c < 3; ++c) {
        classes[c] = tester_->receiver().response_class_count(app_->q_resp.index, c);
      }
    }
    // The server's split must follow its per-connection schedule exactly.
    std::array<std::uint64_t, 3> expected{};
    std::uint64_t established = 0;
    for (std::uint32_t i = 0; i < kPool; ++i) {
      const ht::dut::stateful::TcbKey key{kClientBase + i, 2048, 80};
      const ht::dut::stateful::Tcb* tcb = server_->tcb().lookup(key);
      if (tcb == nullptr) continue;
      ++established;
      const std::uint64_t n = tcb->requests;
      const std::uint64_t e5 = n / kServerErrorEvery;
      const std::uint64_t e4 = n / kNotFoundEvery - n / (kNotFoundEvery * kServerErrorEvery);
      expected[0] += n - e4 - e5;
      expected[1] += e4;
      expected[2] += e5;
    }
    const std::array<std::uint64_t, 3> served = {
        server_->responses_2xx(), server_->responses_4xx(), server_->responses_5xx()};
    const char* names[3] = {"2xx", "4xx", "5xx"};
    // An operation is a response the server sent kSettle before the close;
    // it fails when the tester has not classified it by the close.
    for (std::size_t c = 0; c < 3; ++c) {
      o.attempted += settled_[c];
      o.completed += std::min(classes[c], settled_[c]);
      o.expect(served[c] == expected[c], std::string("server ") + names[c] +
                                             " count off the failure schedule");
      o.expect(classes[c] >= settled_[c] && classes[c] <= served[c],
               std::string("tester ") + names[c] + " count not within the server's");
    }
    o.expect(established == kPool, "connection pool not fully established");
    o.expect(matched == classes[0] + classes[1] + classes[2], "unclassified responses");
    o.values = {{"responses_matched", matched},
                {"tester_2xx", classes[0]},
                {"tester_4xx", classes[1]},
                {"tester_5xx", classes[2]},
                {"server_requests", server_->requests_served()},
                {"server_2xx", served[0]},
                {"server_4xx", served[1]},
                {"server_5xx", served[2]},
                {"pool_established", established},
                {"request_fires", tester_->trigger_fires(app_->t_req)},
                {"server_fingerprint", server_->fingerprint()},
                {"state_digest", state_digest(*tester_, tr)}};
    return o;
  }

  const ht::ntapi::Task& task() const override { return app_->task; }
  /// 119 repetitions: 1.18, correlation 0.87.
  double host_sensitivity() const override { return 1.2; }

 private:
  std::optional<ht::apps::HttpRps> app_;
  std::array<std::uint64_t, 3> settled_{};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "line64") return std::make_unique<Line64>(seed);
  if (name == "scan_linked") return std::make_unique<ScanLinked>(seed);
  if (name == "l7_cps") return std::make_unique<L7Cps>(seed);
  if (name == "l7_rps") return std::make_unique<L7Rps>(seed);
  return nullptr;
}

}  // namespace htbench
