// The benchmark's four workloads, driven from outside through the
// library's public API (HyperTester, TesterCluster, apps::*, dut::*).
//
// A Workload is one repetition: set up a fresh testbed, run the timed
// window, then check the simulated outcome. Its sizes are fixed here and
// its randomness comes only from the seed, so a seed fixes every
// simulated statistic; host time is the only thing that varies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hypertester.hpp"
#include "dut/stateful/workload_server.hpp"
#include "span_trace.hpp"

namespace htbench {

/// The simulated result of one repetition.
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations the workload offered
  std::uint64_t completed = 0;  ///< of those, the ones that completed
  /// Every simulated count the workload exposes, in a fixed order; all
  /// repetitions of a seed must agree on them, and the default seed pins
  /// them (pins.hpp).
  std::vector<std::pair<std::string, std::uint64_t>> values;
  /// Invariant checks that failed (empty = the outcome is correct).
  std::vector<std::string> violations;

  void expect(bool ok, std::string what) {
    if (!ok) violations.push_back(std::move(what));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the testbed, compile + load the task, inject the templates.
  virtual void setup(SpanRecorder* tr) = 0;
  /// The timed window: advance the simulation in fixed sim-time slices,
  /// calling the between-slices hook (if set) after each one.
  virtual void run(SpanRecorder* tr) = 0;
  /// Read the results back and check them against the invariants.
  virtual Outcome outcome(SpanRecorder* tr) = 0;

  virtual ht::sim::ShardGroup& group() = 0;
  virtual std::vector<ht::HyperTester*> testers() = 0;
  /// The stateful server of the L7 workloads, else nullptr.
  virtual const ht::dut::stateful::WorkloadServer* server() const { return nullptr; }
  /// The task the tester loaded and the ASIC it compiled for (the traced
  /// run times a second, standalone compile of the same task).
  virtual const ht::ntapi::Task& task() const = 0;
  virtual ht::rmt::AsicConfig asic_config() const = 0;
  /// write_state of the whole testbed's testers (cluster or standalone).
  virtual void write_state(ht::sim::SnapshotWriter& w) = 0;
  /// How strongly this workload's host time follows the host probe's
  /// (host_probe.hpp): over the repetitions of ten 28 s runs on the
  /// reference host, the standard deviation of log repetition time over
  /// that of log median probe time. A least-squares slope would come out
  /// low, biased by the probe's own noise.
  virtual double host_sensitivity() const = 0;

  /// Host work to run between sim slices, outside the simulation (the
  /// host-speed probe).
  void set_between_slices(std::function<void()> hook) { between_slices_ = std::move(hook); }

 protected:
  std::function<void()> between_slices_;
};

/// A fresh repetition of `name` for `seed`; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Sum of every counter series named `name` (all label sets) in `m`.
std::uint64_t sum_counter(const ht::telemetry::MetricsRegistry& m, const std::string& name);

/// splitmix64 fan-out of the workload seed into independent streams (ASIC
/// seeds, the engine run seed, the target population, the server secret).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace htbench
