// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "rmt/asic.hpp"
#include "sim/event_queue.hpp"
#include "sim/port.hpp"

namespace ht::test {

/// A device-side port that records everything arriving from the switch.
class PortSink {
 public:
  PortSink(sim::EventQueue& ev, std::uint16_t id, double rate_gbps)
      : port(ev, id, rate_gbps) {
    port.on_receive = [this, &ev](net::PacketPtr pkt) {
      arrival_times.push_back(ev.now());
      packets.push_back(std::move(pkt));
    };
  }

  /// Cross-connect with a switch port.
  void attach(sim::Port& switch_port, sim::TimeNs propagation_ns = 0) {
    switch_port.connect(&port, propagation_ns);
    port.connect(&switch_port, propagation_ns);
  }

  sim::Port port;
  std::vector<net::PacketPtr> packets;
  std::vector<sim::TimeNs> arrival_times;
};

/// Testbed fixture: one ASIC plus one sink per front-panel port.
struct AsicTestbed {
  explicit AsicTestbed(rmt::AsicConfig cfg = {}) : asic(ev, cfg) {
    sinks.reserve(asic.port_count());
    for (std::size_t i = 0; i < asic.port_count(); ++i) {
      sinks.push_back(std::make_unique<PortSink>(ev, static_cast<std::uint16_t>(i),
                                                 cfg.port_rate_gbps));
      sinks.back()->attach(asic.port(static_cast<std::uint16_t>(i)));
    }
  }

  sim::EventQueue ev;
  rmt::SwitchAsic asic;
  std::vector<std::unique_ptr<PortSink>> sinks;
};

/// FNV-1a64 over a key list flattened in order (each word as 8
/// little-endian bytes). Pins both the membership and the order of a
/// compiled exact-key list: that order is the exact table's slot order.
inline std::uint64_t fnv1a_keys(const std::vector<std::vector<std::uint64_t>>& keys) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& key : keys) {
    for (const std::uint64_t word : key) {
      for (unsigned b = 0; b < 8; ++b) {
        h ^= (word >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

}  // namespace ht::test
