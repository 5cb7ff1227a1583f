// Tests for the receiver side: counter store (exact + cuckoo + FIFO),
// false-positive analysis, and the query engine.
#include <gtest/gtest.h>

#include "htpr/false_positive.hpp"
#include "htpr/receiver.hpp"
#include "htps/sender.hpp"
#include "net/headers.hpp"
#include "net/packet_builder.hpp"
#include "switchcpu/controller.hpp"
#include "testutil.hpp"

namespace ht::htpr {
namespace {

using net::FieldId;

CounterStoreConfig small_store(std::size_t buckets = 64, unsigned digest_bits = 16) {
  CounterStoreConfig cfg;
  cfg.name = "s";
  cfg.hash.key_fields = {FieldId::kIpv4Sip, FieldId::kIpv4Dip};
  cfg.hash.digest_bits = digest_bits;
  cfg.hash.buckets = buckets;
  cfg.fifo_capacity = 64;
  return cfg;
}

struct StoreFixture {
  StoreFixture(CounterStoreConfig cfg = small_store())
      : asic(ev, rmt::AsicConfig{.num_ports = 2}), store(asic, std::move(cfg)) {}

  rmt::ActionContext ctx_for(std::uint32_t sip, std::uint32_t dip) {
    phv = rmt::Phv{};
    phv.packet = net::make_packet(net::make_udp_packet(sip, dip, 1, 2, 64));
    phv.set(FieldId::kIpv4Sip, sip);
    phv.set(FieldId::kIpv4Dip, dip);
    return rmt::ActionContext{phv, asic.registers(), asic.rng(), ev.now(),
                              [this](std::uint32_t type, std::vector<std::uint64_t> v) {
                                digests.emplace_back(type, std::move(v));
                              }};
  }

  sim::EventQueue ev;
  rmt::SwitchAsic asic;
  CounterStore store;
  rmt::Phv phv;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> digests;
  std::map<std::uint64_t, std::uint64_t> no_evictions;
};

TEST(CounterHashParams, FingerprintNeverZeroAndWidthBounded) {
  CounterHashParams h;
  h.key_fields = {FieldId::kIpv4Sip};
  h.digest_bits = 16;
  h.buckets = 256;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    std::vector<std::uint64_t> key = {k};
    const auto fp = h.fingerprint(key);
    EXPECT_NE(fp, 0u);
    EXPECT_LT(fp, 1u << 16);
  }
}

TEST(CounterHashParams, AltBucketIsInvolution) {
  CounterHashParams h;
  h.key_fields = {FieldId::kIpv4Sip};
  h.buckets = 1024;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    std::vector<std::uint64_t> key = {k};
    const auto fp = h.fingerprint(key);
    const auto b1 = h.bucket1(key);
    const auto b2 = h.alt_bucket(b1, fp);
    EXPECT_EQ(h.alt_bucket(b2, fp), b1);  // cuckoo moves can always go back
    EXPECT_LT(b2, h.buckets);
  }
}

TEST(CounterStore, SumsPerKey) {
  StoreFixture f;
  for (int i = 0; i < 5; ++i) {
    auto ctx = f.ctx_for(1, 2);
    f.store.update(ctx, 10);
  }
  auto ctx = f.ctx_for(3, 4);
  f.store.update(ctx, 7);
  EXPECT_EQ(f.store.total_for_key(std::vector<std::uint64_t>{1, 2}, f.no_evictions), 50u);
  EXPECT_EQ(f.store.total_for_key(std::vector<std::uint64_t>{3, 4}, f.no_evictions), 7u);
  EXPECT_EQ(f.store.total_for_key(std::vector<std::uint64_t>{9, 9}, f.no_evictions), 0u);
}

TEST(CounterStore, UpdateReturnsRunningValue) {
  StoreFixture f;
  auto c1 = f.ctx_for(1, 2);
  EXPECT_EQ(f.store.update(c1, 4), 4u);
  auto c2 = f.ctx_for(1, 2);
  EXPECT_EQ(f.store.update(c2, 4), 8u);
}

TEST(CounterStore, ExactEntriesShadowCuckoo) {
  StoreFixture f;
  f.store.install_exact_entries({{1, 2}});
  auto ctx = f.ctx_for(1, 2);
  f.store.update(ctx, 5);
  EXPECT_EQ(f.store.exact_hits(), 1u);
  EXPECT_EQ(f.store.occupied_buckets(), 0u);  // never touched the arrays
  EXPECT_EQ(f.store.total_for_key(std::vector<std::uint64_t>{1, 2}, f.no_evictions), 5u);
}

TEST(CounterStore, MaxMinFuncs) {
  auto cfg = small_store();
  cfg.func = UpdateFunc::kMax;
  StoreFixture f(cfg);
  for (const std::uint64_t v : {5u, 17u, 3u}) {
    auto ctx = f.ctx_for(1, 2);
    f.store.update(ctx, v);
  }
  EXPECT_EQ(f.store.total_for_key(std::vector<std::uint64_t>{1, 2}, f.no_evictions), 17u);
}

TEST(CounterStore, FifoStagingAndMaintenanceMoves) {
  // Tiny store: 4 buckets force displacements quickly.
  auto cfg = small_store(4);
  StoreFixture f(cfg);
  // Insert enough distinct keys that some collide into full buckets.
  for (std::uint32_t k = 0; k < 16; ++k) {
    auto ctx = f.ctx_for(k, k + 100);
    f.store.update(ctx, 1);
  }
  EXPECT_GT(f.store.fifo_pushes(), 0u);
  // Drive maintenance passes until the FIFO drains or evicts to CPU.
  for (int pass = 0; pass < 5000 && !f.store.fifo().empty(); ++pass) {
    auto ctx = f.ctx_for(0, 0);
    f.store.maintenance_pass(ctx);
  }
  EXPECT_TRUE(f.store.fifo().empty());
  // Every key's count is findable somewhere (arrays or CPU evictions).
  std::map<std::uint64_t, std::uint64_t> cpu;
  for (const auto& [type, values] : f.digests) cpu[values[0]] += values[1];
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < 16; ++k) {
    total += f.store.total_for_key(std::vector<std::uint64_t>{k, k + 100}, cpu);
  }
  EXPECT_EQ(total, 16u);
}

TEST(CounterStore, EvictsToCpuAfterMaxBounces) {
  auto cfg = small_store(4);
  cfg.max_bounces = 1;
  StoreFixture f(cfg);
  for (std::uint32_t k = 0; k < 32; ++k) {
    auto ctx = f.ctx_for(k, 1);
    f.store.update(ctx, 1);
  }
  for (int pass = 0; pass < 500 && !f.store.fifo().empty(); ++pass) {
    auto ctx = f.ctx_for(0, 0);
    f.store.maintenance_pass(ctx);
  }
  EXPECT_GT(f.store.cpu_evictions(), 0u);
  for (const auto& [type, values] : f.digests) {
    EXPECT_EQ(type, cfg.eviction_digest_type);
    EXPECT_EQ(values.size(), 2u);
  }
}

TEST(CounterStore, DistinctCountsUniqueKeys) {
  auto cfg = small_store(256);
  cfg.func = UpdateFunc::kDistinct;
  StoreFixture f(cfg);
  for (std::uint32_t k = 0; k < 20; ++k) {
    for (int rep = 0; rep < 3; ++rep) {
      auto ctx = f.ctx_for(k, 1);
      f.store.update(ctx, 1);
    }
  }
  EXPECT_EQ(f.store.distinct_count(f.no_evictions), 20u);
}

TEST(CounterStore, RejectsBadConfig) {
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  auto bad_buckets = small_store(60);  // not a power of two
  EXPECT_THROW(CounterStore(asic, bad_buckets), std::invalid_argument);
  auto bad_digest = small_store(64, 20);
  bad_digest.name = "s2";
  EXPECT_THROW(CounterStore(asic, bad_digest), std::invalid_argument);
  auto no_key = small_store();
  no_key.name = "s3";
  no_key.hash.key_fields.clear();
  EXPECT_THROW(CounterStore(asic, no_key), std::invalid_argument);
}

// --- false-positive analysis -------------------------------------------------

/// `n` two-field (sip, dip) keys, row-major.
std::vector<std::uint64_t> synthetic_keys(std::size_t n) {
  std::vector<std::uint64_t> words;
  words.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    words.push_back(0x0A000000 + i);
    words.push_back(0x0B000000 + (i * 7));
  }
  return words;
}

std::span<const std::uint64_t> key_at(const std::vector<std::uint64_t>& words, std::size_t i) {
  return std::span<const std::uint64_t>(words).subspan(2 * i, 2);
}

TEST(FalsePositive, NoCollisionsInTinySpace) {
  CounterHashParams h;
  h.key_fields = {FieldId::kIpv4Sip, FieldId::kIpv4Dip};
  h.digest_bits = 32;
  h.buckets = 1 << 16;
  const auto analysis = analyze_collisions(h, synthetic_keys(100), 2);
  EXPECT_EQ(analysis.exact_keys.size(), 0u);
  EXPECT_EQ(analysis.keys_analyzed, 100u);
}

TEST(FalsePositive, DetectsCollisionsInLargeSpace16Bit) {
  CounterHashParams h;
  h.key_fields = {FieldId::kIpv4Sip, FieldId::kIpv4Dip};
  h.digest_bits = 16;
  h.buckets = 1 << 12;
  const auto analysis = analyze_collisions(h, synthetic_keys(100'000), 2);
  // 100K keys, 16-bit fingerprints: collisions certain but sparse.
  EXPECT_GT(analysis.exact_keys.size(), 0u);
  EXPECT_LT(analysis.exact_keys.size(), 5'000u);
  EXPECT_GT(analysis.exact_table_bytes, 0u);
}

TEST(FalsePositive, WiderDigestNeedsFewerEntries) {
  CounterHashParams h16, h32;
  h16.key_fields = h32.key_fields = {FieldId::kIpv4Sip, FieldId::kIpv4Dip};
  h16.digest_bits = 16;
  h32.digest_bits = 32;
  h16.buckets = h32.buckets = 1 << 14;
  const auto keys = synthetic_keys(200'000);
  const auto a16 = analyze_collisions(h16, keys, 2);
  const auto a32 = analyze_collisions(h32, keys, 2);
  EXPECT_GT(a16.exact_keys.size(), a32.exact_keys.size());  // Fig 17b claim
}

TEST(FalsePositive, GoldenExactKeyOrder) {
  // The exact keys' order is the exact table's slot order, which lands in
  // the register image and so in every tester state digest: count and
  // order are pinned, not just "some collisions found".
  CounterHashParams h;
  h.key_fields = {FieldId::kIpv4Sip, FieldId::kIpv4Dip};
  h.buckets = 1 << 12;
  const auto keys = synthetic_keys(100'000);
  h.digest_bits = 16;
  const auto a16 = analyze_collisions(h, keys, 2);
  EXPECT_EQ(a16.exact_keys.size(), 30u);
  EXPECT_EQ(test::fnv1a_keys(a16.exact_keys), 14982267357452391450ull);
  h.digest_bits = 32;
  const auto a32 = analyze_collisions(h, keys, 2);
  EXPECT_EQ(a32.exact_keys.size(), 0u);
  EXPECT_EQ(test::fnv1a_keys(a32.exact_keys), 14695981039346656037ull);
  // A tiny store makes most fingerprint groups overlap: thousands of
  // exact keys from multi-member clusters.
  h.digest_bits = 16;
  h.buckets = 1 << 6;
  const auto crowded = analyze_collisions(h, keys, 2);
  EXPECT_EQ(crowded.exact_keys.size(), 2326u);
  EXPECT_EQ(test::fnv1a_keys(crowded.exact_keys), 16621399894232849016ull);
}

TEST(FalsePositive, ExactEntriesGuaranteeAccuracy) {
  // The paper's headline property: with the precomputed exact entries
  // installed, per-key counts are exact even when fingerprints collide.
  auto cfg = small_store(1 << 10, 16);
  cfg.exact_capacity = 1 << 16;
  cfg.fifo_capacity = 1 << 12;
  StoreFixture f(cfg);
  const auto keys = synthetic_keys(20'000);
  const auto analysis = analyze_collisions(cfg.hash, keys, 2);
  f.store.install_exact_entries(analysis.exact_keys);

  // Each key is counted key_index % 3 + 1 times.
  for (std::size_t i = 0; i < 20'000; ++i) {
    for (std::size_t rep = 0; rep < i % 3 + 1; ++rep) {
      auto ctx = f.ctx_for(static_cast<std::uint32_t>(key_at(keys, i)[0]),
                           static_cast<std::uint32_t>(key_at(keys, i)[1]));
      f.store.update(ctx, 1);
      // Interleave maintenance so the FIFO keeps draining.
      auto mctx = f.ctx_for(0, 0);
      f.store.maintenance_pass(mctx);
    }
  }
  while (!f.store.fifo().empty()) {
    auto ctx = f.ctx_for(0, 0);
    f.store.maintenance_pass(ctx);
  }
  std::map<std::uint64_t, std::uint64_t> cpu;
  for (const auto& [type, values] : f.digests) cpu[values[0]] += values[1];

  std::size_t wrong = 0;
  for (std::size_t i = 0; i < 20'000; ++i) {
    const auto got = f.store.total_for_key(key_at(keys, i), cpu);
    if (got != i % 3 + 1) ++wrong;
  }
  EXPECT_EQ(wrong, 0u) << "false positives corrupted " << wrong << " counters";
}

TEST(FalsePositive, WithoutExactEntriesCollisionsCorrupt) {
  // Ablation: the same workload WITHOUT exact-key matching produces wrong
  // counters — the reason Sonata-style stores are not false-positive-free.
  auto cfg = small_store(1 << 10, 16);
  cfg.fifo_capacity = 1 << 12;
  StoreFixture f(cfg);
  const auto keys = synthetic_keys(20'000);
  const auto analysis = analyze_collisions(cfg.hash, keys, 2);
  ASSERT_GT(analysis.exact_keys.size(), 0u);  // collisions exist in this space

  for (std::size_t i = 0; i < 20'000; ++i) {
    const auto key = key_at(keys, i);
    auto ctx = f.ctx_for(static_cast<std::uint32_t>(key[0]), static_cast<std::uint32_t>(key[1]));
    f.store.update(ctx, 1);
    auto mctx = f.ctx_for(0, 0);
    f.store.maintenance_pass(mctx);
  }
  while (!f.store.fifo().empty()) {
    auto ctx = f.ctx_for(0, 0);
    f.store.maintenance_pass(ctx);
  }
  std::map<std::uint64_t, std::uint64_t> cpu;
  for (const auto& [type, values] : f.digests) cpu[values[0]] += values[1];
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < 20'000; ++i) {
    if (f.store.total_for_key(key_at(keys, i), cpu) != 1) ++wrong;
  }
  EXPECT_GT(wrong, 0u);
}

// --- query engine ------------------------------------------------------------

TEST(Receiver, KeylessReduceSumsBytes) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "thru";
  q.ops = {MapOp{.keys = {}, .value_field = FieldId::kPktLen}, ReduceOp{UpdateFunc::kSum}};
  const auto qid = rx.add_query(std::move(q));
  rx.install();
  for (int i = 0; i < 10; ++i) {
    tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4, 100)));
  }
  tb.ev.run_until(sim::us(100));
  EXPECT_EQ(rx.keyless_total(qid), 1000u);
  EXPECT_EQ(rx.matched(qid), 10u);
}

TEST(Receiver, FilterSelectsTcpSyn) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "syns";
  q.ops = {FilterOp{FieldId::kTcpFlags, Cmp::kEq, net::tcpflag::kSyn},
           MapOp{}, ReduceOp{UpdateFunc::kSum}};
  const auto qid = rx.add_query(std::move(q));
  rx.install();
  tb.sinks[0]->port.send(
      net::make_packet(net::make_tcp_packet(1, 2, 3, 4, net::tcpflag::kSyn)));
  tb.sinks[0]->port.send(
      net::make_packet(net::make_tcp_packet(1, 2, 3, 4, net::tcpflag::kAck)));
  tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4)));
  tb.ev.run_until(sim::us(100));
  EXPECT_EQ(rx.evaluated(qid), 3u);
  EXPECT_EQ(rx.matched(qid), 1u);
}

TEST(Receiver, PortScopedQuery) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 4});
  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "p2only";
  q.ports = {2};
  q.ops = {MapOp{}, ReduceOp{UpdateFunc::kSum}};
  const auto qid = rx.add_query(std::move(q));
  rx.install();
  tb.sinks[1]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4)));
  tb.sinks[2]->port.send(net::make_packet(net::make_udp_packet(1, 2, 3, 4)));
  tb.ev.run_until(sim::us(100));
  EXPECT_EQ(rx.matched(qid), 1u);
}

TEST(Receiver, KeyedReduceCountsPerFlow) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "perflow";
  q.ops = {MapOp{.keys = {FieldId::kIpv4Dip}, .value_field = FieldId::kPktLen},
           ReduceOp{UpdateFunc::kSum}};
  q.store.hash.buckets = 256;
  const auto qid = rx.add_query(std::move(q));
  rx.install();
  for (int i = 0; i < 4; ++i) {
    tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 0xAA, 3, 4, 64)));
  }
  tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(1, 0xBB, 3, 4, 128)));
  tb.ev.run_until(sim::us(100));
  auto* store = rx.store(qid);
  ASSERT_NE(store, nullptr);
  std::map<std::uint64_t, std::uint64_t> cpu;
  EXPECT_EQ(store->total_for_key(std::vector<std::uint64_t>{0xAA}, cpu), 256u);
  EXPECT_EQ(store->total_for_key(std::vector<std::uint64_t>{0xBB}, cpu), 128u);
}

TEST(Receiver, DistinctQueryOverFlows) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "uniq";
  q.ops = {MapOp{.keys = {FieldId::kIpv4Sip}}, DistinctOp{}};
  q.store.hash.buckets = 256;
  const auto qid = rx.add_query(std::move(q));
  rx.install();
  for (const std::uint32_t sip : {10u, 20u, 10u, 30u, 20u, 10u}) {
    tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(sip, 2, 3, 4)));
  }
  tb.ev.run_until(sim::us(100));
  std::map<std::uint64_t, std::uint64_t> cpu;
  EXPECT_EQ(rx.store(qid)->distinct_count(cpu), 3u);
}

TEST(Receiver, SentTrafficQueryObservesEditedPackets) {
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  htps::Sender sender(tb.asic);
  auto cfg = htps::TemplateConfig{};
  cfg.spec.l4 = net::HeaderKind::kUdp;
  cfg.spec.pkt_len = 100;
  cfg.spec.header_init = {{FieldId::kIpv4Sip, 1}, {FieldId::kIpv4Dip, 2}};
  cfg.egress_ports = {1};
  cfg.interval_ns = 10'000;
  const auto tid = sender.add_template(std::move(cfg));
  sender.install();

  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "sent";
  q.source = QueryConfig::Source::kSent;
  q.template_id = tid;
  q.ops = {MapOp{.keys = {}, .value_field = FieldId::kPktLen}, ReduceOp{UpdateFunc::kSum}};
  const auto qid = rx.add_query(std::move(q));
  rx.install();

  sender.start();
  tb.ev.run_until(sim::ms(1));
  const auto sent = tb.sinks[1]->packets.size();
  ASSERT_GT(sent, 10u);
  EXPECT_EQ(rx.keyless_total(qid), sent * 100u);
}

TEST(Receiver, ResultFilterSplitsOnCount) {
  // Web-testing style: reduce per flow, then filter on the running count.
  test::AsicTestbed tb(rmt::AsicConfig{.num_ports = 2});
  Receiver rx(tb.asic);
  QueryConfig q;
  q.name = "over3";
  q.ops = {MapOp{.keys = {FieldId::kIpv4Sip}}, ReduceOp{UpdateFunc::kCount},
           FilterOp{.cmp = Cmp::kGe, .value = 3, .on_result = true}};
  q.store.hash.buckets = 64;
  const auto qid = rx.add_query(std::move(q));
  rx.install();
  for (int i = 0; i < 5; ++i) {
    tb.sinks[0]->port.send(net::make_packet(net::make_udp_packet(7, 2, 3, 4)));
  }
  tb.ev.run_until(sim::us(100));
  // Counts 1..5; passes on 3, 4, 5.
  EXPECT_EQ(rx.matched(qid), 3u);
}

TEST(Compare, AllOperators) {
  EXPECT_TRUE(compare(Cmp::kEq, 5, 5));
  EXPECT_TRUE(compare(Cmp::kNe, 5, 6));
  EXPECT_TRUE(compare(Cmp::kLt, 5, 6));
  EXPECT_TRUE(compare(Cmp::kLe, 5, 5));
  EXPECT_TRUE(compare(Cmp::kGt, 7, 6));
  EXPECT_TRUE(compare(Cmp::kGe, 7, 7));
  EXPECT_FALSE(compare(Cmp::kLt, 6, 6));
}

}  // namespace
}  // namespace ht::htpr
