// Host-speed probe: a fixed kernel whose run time tracks how fast the host
// currently executes simulator-like code.
//
// A shared host changes the simulator's speed by up to 2x for minutes at a
// time (see ../README.md, "Host noise"). The benchmark runs this probe for a
// few milliseconds after every sim slice and expresses each repetition's
// host times in seconds of a reference host:
//
//   host_scale        = (median probe seconds / kReferenceProbeS) ^ sensitivity
//   reference seconds = host seconds / host_scale
//
// The probe is part of the benchmark, not of the library, so a change to
// the library moves the workload's time and leaves the probe's alone.
//
// Its shape follows what the simulator spends time on: an event heap with
// indirect handler calls over a pool of 64 B packet buffers plus a hashed
// counter table (about 2.5 MiB together, around the size of one core's L2),
// then a table walk with several independent dependency chains and
// data-dependent branches. A workload reacts more strongly than the probe
// to the same host change, by its own factor: the sensitivity is how the
// log of a repetition's host time moves with the log of its median probe
// time, measured per workload on the reference host
// (Workload::host_sensitivity). The two correlate at 0.87-0.92 across the
// four workloads; a cache-light ALU chain tracked the simulator far worse
// (0.57 on line64), and so did a DRAM pointer chase (0.74).
#pragma once

#include <cstdint>
#include <vector>

namespace htbench {

/// Median probe seconds (thread CPU) on the reference host, the 4-vCPU
/// Xeon VM the benchmark was written on.
inline constexpr double kReferenceProbeS = 0.0140;
/// Host seconds per reference-host second for a median probe time and a
/// workload's sensitivity (see above).
double host_scale(double median_probe_s, double sensitivity);

class HostProbe {
 public:
  HostProbe();

  /// Run one fixed unit of work; returns the calling thread's CPU seconds
  /// spent on it (CPU, not wall, so a descheduled probe reads the same).
  double run();

 private:
  struct Packet {
    std::uint8_t bytes[64];
    std::uint64_t meta[4];
  };
  struct Event {
    std::uint64_t at;
    std::uint32_t seq;
    std::uint32_t packet;
    std::uint32_t kind;
  };

  void simulate(std::uint32_t events);
  void walk(std::uint32_t steps);
  void push(std::uint64_t at, std::uint32_t packet, std::uint32_t kind);
  std::uint64_t next_random();

  std::vector<Packet> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<Event> heap_;
  std::vector<std::uint64_t> counters_;
  std::vector<std::uint64_t> table_;
  std::uint8_t template_[64] = {};
  std::uint32_t seq_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t sink_ = 0;
};

}  // namespace htbench
