// Offline false-positive enumeration (§5.2 "false positive avoidance").
//
// Because HyperTester generates the traffic it later queries, the global
// header space of every query is enumerable before the task starts. Two
// distinct keys are confusable in the counter store exactly when their
// fingerprints are equal AND their cuckoo bucket sets intersect — then a
// counter update for one could land on the other's entry. For every
// maximal set of mutually confusable keys, all but one are installed in
// the exact-key-matching table, which removes false positives entirely
// (the one remaining key keeps exclusive ownership of the fingerprint in
// its reachable buckets).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "htpr/counter_store.hpp"

namespace ht::htpr {

struct CollisionAnalysis {
  /// Keys that must go into the exact-key-matching table.
  std::vector<std::vector<std::uint64_t>> exact_keys;
  std::size_t keys_analyzed = 0;
  std::size_t collision_clusters = 0;  ///< groups of mutually confusable keys
  /// Memory for the exact table in bytes (key bits + 64-bit counter each).
  std::size_t exact_table_bytes = 0;
};

/// Analyze a key space against the store's hash parameters. `words` holds
/// the keys row-major, `arity` words each (parallel to hash.key_fields).
/// Exact keys come out grouped by fingerprint in the order the
/// fingerprint map iterates, members of a group in key order; that order
/// becomes the exact table's slot order.
CollisionAnalysis analyze_collisions(const CounterHashParams& hash,
                                     std::span<const std::uint64_t> words, std::size_t arity);

}  // namespace ht::htpr
