// Pinned state digests: every symx catalog task is run on the interpreted
// walk and on the fused fast path, under the default timing model and with
// mcast_jitter_sigma_ns = 0, and HyperTester::state_digest() is compared
// against a recorded value.
//
// The differential, sharded and recovery suites compare runs of one binary
// with each other, so a change that shifts every path the same way passes
// them all. These pins compare against a fixed reference instead. Zero
// multicast jitter lands every replica of a fan-out on one TM tick, which
// sends multi-replica tick groups through egress; the default jitter keeps
// nearly every tick a single replica.
//
// A mismatch means simulated behaviour changed. If that is intended,
// re-record the table from the failure messages and say why in the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "analysis/symx/model.hpp"
#include "analysis/symx/oracle.hpp"
#include "apps/tasks.hpp"
#include "core/hypertester.hpp"
#include "testutil.hpp"

namespace ht {
namespace {

struct Pin {
  const char* name;
  ntapi::Task task;
  // Indexed [fused][zero_mcast_jitter].
  std::uint64_t digest[2][2];
};

std::vector<Pin> pins() {
  using namespace apps;
  return {
      {"throughput", throughput_test(1, 2, {0}).task,
       {{0xb0834aca5ddda865ull, 0xa9f6d9d881cb9906ull},
        {0xd1621d7eb866ee50ull, 0x87df00116b3438adull}}},
      {"delay", delay_test(1, 2, {0}, {1}, 2000).task,
       {{0x9cffd3dc143656dcull, 0xfceadb89a9a510a4ull},
        {0x45d9e4e40ea7d912ull, 0x8ec0dd27a76d4d0eull}}},
      {"delay_state", delay_test_state_based(1, 2, {0}, {1}, 2000).task,
       {{0x3f6952d7bb63d587ull, 0x8413608e2393749full},
        {0x05e78ff0124c58cdull, 0xc31aa8b5e6310129ull}}},
      {"ip_scan", ip_scan(0x0A000000, 16, 80, {0}).task,
       {{0xf601c5823d594626ull, 0xf64755d83af4bcd6ull},
        {0x53f955a8b632c585ull, 0x11e90d2fb792f803ull}}},
      {"syn_flood", syn_flood(1, 80, {0, 1}).task,
       {{0x25429c9d7230bc07ull, 0x77910627e2eb8af4ull},
        {0x33975b63fa2ade3bull, 0x2279332c8829000full}}},
      {"web", web_test(1, 80, 0x01010001, 4, {0}, 2000, 2).task,
       {{0x68cc104cef936c32ull, 0xc9017c7194caa433ull},
        {0x34e92856b10cfaf7ull, 0x181e213bdc6eee98ull}}},
      {"udp_flood", udp_flood(1, 53, {0}).task,
       {{0xccc1fc82c77daa99ull, 0xf6bb28ffecf369cbull},
        {0xc10d768513c66c40ull, 0xf12f9554263fd654ull}}},
      {"dns_amp", dns_amplification(1, 0x08080800, 8, {0}).task,
       {{0x2472bacb2830836full, 0x803a11ab90f8853bull},
        {0xb13ea53dba7b958full, 0xfa40e3ce8a36e032ull}}},
      {"loss", loss_test(1, 2, {0}, {1}, 16, 1000).task,
       {{0x9a9c412bd8b82e32ull, 0x1b34ac094e067d54ull},
        {0xc53b028d9f6668c0ull, 0x93b8b3d62221acceull}}},
      {"port_bw", port_bandwidth().task,
       {{0x5221695235f473d5ull, 0x5221695235f473d5ull},
        {0xd16a31bed3c93936ull, 0xd16a31bed3c93936ull}}},
      {"ping_sweep", ping_sweep(0x0A000000, 8, {0}).task,
       {{0xd331a6bd57e3f223ull, 0xb395f1ac0d34c4f7ull},
        {0xfd50841101ae36e6ull, 0x1839b9c9000f1b0dull}}},
  };
}

/// The fastpath_diff_test scenario: sinks on every port, the oracle's
/// conformance injects on the receive side, then 400 us of generation.
std::uint64_t run_digest(const ntapi::Task& task, bool fused, bool zero_mcast_jitter) {
  TesterConfig cfg;
  cfg.fastpath = fused;
  if (zero_mcast_jitter) cfg.asic.timing.mcast_jitter_sigma_ns = 0.0;
  HyperTester tester(cfg);
  std::vector<std::unique_ptr<test::PortSink>> sinks;
  for (std::size_t p = 0; p < tester.asic().port_count(); ++p) {
    sinks.push_back(std::make_unique<test::PortSink>(
        tester.events(), static_cast<std::uint16_t>(1000 + p), cfg.asic.port_rate_gbps));
    sinks.back()->attach(tester.asic().port(static_cast<std::uint16_t>(p)));
  }
  tester.load(task);
  analysis::symx::TaskModel model(task, tester.compiled(), cfg.asic);
  analysis::symx::Oracle oracle(model);
  for (const auto& c : oracle.injects()) {
    tester.asic().port(c.port).deliver(net::make_packet(net::Packet(c.bytes)));
  }
  tester.start();
  tester.run_for(sim::us(400));
  return tester.state_digest();
}

TEST(DigestPins, CatalogMatchesRecordedDigests) {
  for (const Pin& pin : pins()) {
    for (const bool fused : {false, true}) {
      for (const bool zero : {false, true}) {
        SCOPED_TRACE(std::string(pin.name) + (fused ? " fused" : " interpreted") +
                     (zero ? " zero-jitter" : " default-jitter"));
        const std::uint64_t got = run_digest(pin.task, fused, zero);
        EXPECT_EQ(got, pin.digest[fused][zero]) << "digest is 0x" << std::hex << got;
      }
    }
  }
}

}  // namespace
}  // namespace ht
