// Ablation: HyperTester's counter-based store vs Sonata's sketch designs.
//
// The paper's §5.2 argument: Count-Min sketches (reduce) and Bloom filters
// (distinct) "compromise accuracy inevitably", while the counter store
// with exact-key matching is false-positive-free. This harness runs the
// same per-flow counting workload through both designs and reports the
// error distributions.
#include <map>

#include "common.hpp"
#include "htpr/false_positive.hpp"
#include "rmt/hashing.hpp"

namespace {

using namespace ht;

/// A Count-Min sketch with d rows of w counters (Sonata's reduce).
class CountMin {
 public:
  CountMin(std::size_t rows, std::size_t width) : width_(width) {
    for (std::size_t r = 0; r < rows; ++r) {
      hash_.emplace_back(0x1234u + static_cast<std::uint32_t>(r) * 77);
      rows_.emplace_back(width, 0);
    }
  }
  void add(std::span<const std::uint64_t> key, const std::vector<net::FieldId>& fields,
           std::uint64_t inc) {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      rows_[r][hash_[r].hash_fields(key, fields, 32) % width_] += inc;
    }
  }
  std::uint64_t query(std::span<const std::uint64_t> key,
                      const std::vector<net::FieldId>& fields) const {
    std::uint64_t best = ~std::uint64_t{0};
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      best = std::min(best, rows_[r][hash_[r].hash_fields(key, fields, 32) % width_]);
    }
    return best;
  }
  std::size_t bytes() const { return rows_.size() * width_ * 8; }

 private:
  std::size_t width_;
  std::vector<rmt::HashUnit> hash_;
  std::vector<std::vector<std::uint64_t>> rows_;
};

}  // namespace

int main() {
  const std::vector<net::FieldId> fields = {net::FieldId::kIpv4Sip, net::FieldId::kIpv4Dip};
  constexpr std::size_t kFlows = 60'000;

  bench::headline("Ablation: counter store (exact) vs Count-Min sketch (Sonata)",
                  "counter-based + exact keys = zero error; sketch overcounts");

  // Workload: flow i is updated (i % 5) + 1 times.
  std::vector<std::uint64_t> words;  // row-major (sip, dip)
  words.reserve(2 * kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    words.push_back(0x0A000000 + i);
    words.push_back(0x14000000 + (i * 31) % 100000);
  }
  const auto key = [&words](std::size_t i) {
    return std::span<const std::uint64_t>(words).subspan(2 * i, 2);
  };

  // --- counter store on the full ASIC path ----------------------------------
  sim::EventQueue ev;
  rmt::SwitchAsic asic(ev, rmt::AsicConfig{.num_ports = 2});
  htpr::CounterStoreConfig cfg;
  cfg.name = "abl";
  cfg.hash.key_fields = fields;
  cfg.hash.buckets = 1 << 16;
  cfg.fifo_capacity = 1 << 12;
  cfg.exact_capacity = 1 << 16;
  htpr::CounterStore store(asic, cfg);
  const auto analysis = htpr::analyze_collisions(cfg.hash, words, 2);
  store.install_exact_entries(analysis.exact_keys);

  std::map<std::uint64_t, std::uint64_t> cpu;
  rmt::Phv phv;
  phv.packet = net::make_packet(64);
  rmt::ActionContext ctx{phv, asic.registers(), asic.rng(), 0,
                         [&cpu](std::uint32_t, std::vector<std::uint64_t> v) {
                           cpu[v[0]] += v[1];
                         }};
  for (std::size_t i = 0; i < kFlows; ++i) {
    for (std::size_t rep = 0; rep < i % 5 + 1; ++rep) {
      phv.set(fields[0], key(i)[0]);
      phv.set(fields[1], key(i)[1]);
      store.update(ctx, 1);
      store.maintenance_pass(ctx);
    }
  }
  while (!store.fifo().empty()) store.maintenance_pass(ctx);

  std::size_t store_errors = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    if (store.total_for_key(key(i), cpu) != i % 5 + 1) ++store_errors;
  }
  const std::size_t store_bytes = cfg.hash.buckets * (2 + 8) + analysis.exact_table_bytes;

  // --- Count-Min with comparable memory --------------------------------------
  CountMin sketch(3, cfg.hash.buckets / 4);
  for (std::size_t i = 0; i < kFlows; ++i) {
    for (std::size_t rep = 0; rep < i % 5 + 1; ++rep) sketch.add(key(i), fields, 1);
  }
  std::size_t sketch_errors = 0;
  double sketch_total_overcount = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const auto got = sketch.query(key(i), fields);
    if (got != i % 5 + 1) {
      ++sketch_errors;
      sketch_total_overcount += static_cast<double>(got - (i % 5 + 1));
    }
  }

  bench::row("%-28s %12s %14s %12s", "design", "wrong flows", "error rate", "memory");
  bench::row("%-28s %12zu %13.4f%% %10.0fKB", "counter store + exact keys", store_errors,
             100.0 * static_cast<double>(store_errors) / kFlows,
             static_cast<double>(store_bytes) / 1024.0);
  bench::row("%-28s %12zu %13.4f%% %10.0fKB", "count-min sketch (3 rows)", sketch_errors,
             100.0 * static_cast<double>(sketch_errors) / kFlows,
             static_cast<double>(sketch.bytes()) / 1024.0);
  if (sketch_errors > 0) {
    bench::row("count-min mean overcount among wrong flows: %.2f",
               sketch_total_overcount / static_cast<double>(sketch_errors));
  }
  bench::row("exact-key entries installed: %zu (for %zu flows)", analysis.exact_keys.size(),
             kFlows);
  return 0;
}
