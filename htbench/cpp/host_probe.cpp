#include "host_probe.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "proc_stats.hpp"

namespace htbench {

namespace {

constexpr std::uint32_t kPoolPackets = 16384;       // 16,384 x 96 B = 1.5 MiB
constexpr std::uint32_t kCounterSlots = 1u << 17;   // 1 MiB
constexpr std::uint32_t kTableSlots = 1u << 17;     // 1 MiB
constexpr std::uint32_t kMaxPending = 4096;
// About 14 ms on the reference host: long enough that a repetition's
// median probe time tracks the host, short enough to cost ~8% of a slice.
constexpr std::uint32_t kEventsPerRun = 40'000;
constexpr std::uint32_t kStepsPerRun = 400'000;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

HostProbe::HostProbe()
    : pool_(kPoolPackets), counters_(kCounterSlots, 0), table_(kTableSlots) {
  free_.reserve(kPoolPackets);
  for (std::uint32_t i = kPoolPackets; i > 0; --i) free_.push_back(i - 1);
  for (std::uint32_t i = 0; i < kTableSlots; ++i) table_[i] = i * 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < 64; ++i) template_[i] = static_cast<std::uint8_t>(i * 7);
  heap_.reserve(2 * kMaxPending);
  for (std::uint32_t i = 0; i < 64; ++i) push(i, 0, 0);
}

std::uint64_t HostProbe::next_random() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

void HostProbe::push(std::uint64_t at, std::uint32_t packet, std::uint32_t kind) {
  heap_.push_back({at, seq_++, packet, kind});
  std::push_heap(heap_.begin(), heap_.end(), [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  });
}

// Three handlers, called through a table: generate a packet from the
// template, "egress" it (hash + counter), deliver and free it.
void HostProbe::simulate(std::uint32_t events) {
  using Handler = void (*)(HostProbe&, const Event&);
  static constexpr Handler kHandlers[3] = {
      [](HostProbe& p, const Event& e) {
        if (p.free_.empty()) {
          p.push(e.at + 50, 0, 0);
          return;
        }
        const std::uint32_t id = p.free_.back();
        p.free_.pop_back();
        Packet& pkt = p.pool_[id];
        std::memcpy(pkt.bytes, p.template_, sizeof pkt.bytes);
        const std::uint64_t r = p.next_random();
        std::memcpy(pkt.bytes + 26, &r, sizeof r);
        pkt.meta[0] = e.at;
        pkt.meta[1] = r;
        p.push(e.at + 1 + (r & 7), id, 1);
        p.push(e.at + 7 + (r >> 60), 0, 0);
      },
      [](HostProbe& p, const Event& e) {
        Packet& pkt = p.pool_[e.packet];
        const std::uint64_t h = fnv1a(pkt.bytes + 26, 12);
        pkt.meta[2] = h;
        p.counters_[h & (kCounterSlots - 1)] += 64;
        p.push(e.at + ((h & 1) != 0 ? 100 + (h & 63) : 30), e.packet, 2);
      },
      [](HostProbe& p, const Event& e) {
        const Packet& pkt = p.pool_[e.packet];
        const std::uint64_t h = fnv1a(pkt.bytes + 30, 8) ^ pkt.meta[2];
        ++p.counters_[(h >> 17) & (kCounterSlots - 1)];
        p.free_.push_back(e.packet);
      },
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };
  for (std::uint32_t i = 0; i < events; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event e = heap_.back();
    heap_.pop_back();
    // Bound the backlog: a generator firing into a full heap is dropped.
    if (e.kind == 0 && heap_.size() > kMaxPending) continue;
    kHandlers[e.kind](*this, e);
  }
}

void HostProbe::walk(std::uint32_t steps) {
  std::uint64_t a = rng_ | 1, b = 2, c = 3, d = 4, s = 0;
  constexpr std::uint64_t kMask = kTableSlots - 1;
  for (std::uint32_t i = 0; i < steps; ++i) {
    a ^= a << 13;
    a ^= a >> 7;
    a ^= a << 17;
    b = b * 0x5851F42D4C957F2Dull + 1;
    c += table_[(a >> 11) & kMask];
    d ^= table_[(b >> 20) & kMask];
    if (((a ^ b) & 1) != 0) {
      s += c;
    } else {
      s ^= d;
    }
    if (((c >> 3) & 1) != 0) ++table_[(d >> 9) & kMask];
  }
  sink_ += s;
}

double host_scale(double median_probe_s, double sensitivity) {
  return std::pow(median_probe_s / kReferenceProbeS, sensitivity);
}

double HostProbe::run() {
  const double t0 = thread_cpu_s();
  simulate(kEventsPerRun);
  walk(kStepsPerRun);
  return thread_cpu_s() - t0;
}

}  // namespace htbench
