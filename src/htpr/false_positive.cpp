#include "htpr/false_positive.hpp"

#include <stdexcept>
#include <unordered_map>

#include "net/fields.hpp"

namespace ht::htpr {

CollisionAnalysis analyze_collisions(const CounterHashParams& hash,
                                     std::span<const std::uint64_t> words, std::size_t arity) {
  if (arity == 0 || words.size() % arity != 0) {
    throw std::invalid_argument("analyze_collisions: key words are not whole rows of the arity");
  }
  const std::size_t n = words.size() / arity;
  const auto key = [&](std::size_t i) { return words.subspan(i * arity, arity); };
  CollisionAnalysis out;
  out.keys_analyzed = n;

  // Hash every key, then group keys by fingerprint: only same-fingerprint
  // keys can collide. (Interleaving the hashing with the map probes
  // measured about 2x slower at 2^17 keys.) A group is a chain through the
  // flat placement array (head/tail), appended in key order. The map
  // is filled in key order too, so its iteration order — and with it the
  // exact-key order — depends only on the key sequence.
  constexpr std::size_t kEnd = static_cast<std::size_t>(-1);
  struct Placement {
    std::uint64_t fp;
    std::size_t b1;
    std::size_t b2;
    std::size_t next;  ///< next key of the same fingerprint, or kEnd
  };
  struct Group {
    std::size_t head;
    std::size_t tail;
  };
  std::vector<Placement> placements(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t fp = hash.fingerprint(key(i));
    const std::size_t b1 = hash.bucket1(key(i));
    placements[i] = {fp, b1, hash.alt_bucket(b1, fp), kEnd};
  }
  std::unordered_map<std::uint64_t, Group> by_fp;
  by_fp.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = by_fp.try_emplace(placements[i].fp, Group{i, i});
    if (fresh) continue;
    placements[it->second.tail].next = i;
    it->second.tail = i;
  }

  double key_bits = 0;
  for (const auto f : hash.key_fields) key_bits += net::field_width(f);

  std::vector<std::size_t> members;
  std::vector<int> cluster;
  std::vector<bool> seen;
  for (const auto& [fp, group] : by_fp) {
    if (group.head == group.tail) continue;  // a lone key collides with nothing
    members.clear();
    for (std::size_t i = group.head; i != kEnd; i = placements[i].next) members.push_back(i);
    // Within a fingerprint group, keys whose bucket sets intersect are
    // mutually confusable. Union the overlapping ones into clusters and
    // send every member but the first to the exact table. Fingerprint
    // groups are tiny (collisions are rare), so quadratic scan is fine.
    cluster.assign(members.size(), -1);
    int next_cluster = 0;
    for (std::size_t a = 0; a < members.size(); ++a) {
      const Placement& pa = placements[members[a]];
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        const Placement& pb = placements[members[b]];
        const bool overlap = pa.b1 == pb.b1 || pa.b1 == pb.b2 || pa.b2 == pb.b1 || pa.b2 == pb.b2;
        if (!overlap) continue;
        if (cluster[a] < 0 && cluster[b] < 0) {
          cluster[a] = cluster[b] = next_cluster++;
        } else if (cluster[a] < 0) {
          cluster[a] = cluster[b];
        } else if (cluster[b] < 0) {
          cluster[b] = cluster[a];
        } else if (cluster[a] != cluster[b]) {
          // Merge: relabel b's cluster to a's.
          const int from = cluster[b], to = cluster[a];
          for (auto& c : cluster) {
            if (c == from) c = to;
          }
        }
      }
    }
    // Emit all but the first member of each cluster.
    seen.assign(static_cast<std::size_t>(next_cluster), false);
    for (std::size_t a = 0; a < members.size(); ++a) {
      if (cluster[a] < 0) continue;
      if (!seen[static_cast<std::size_t>(cluster[a])]) {
        seen[static_cast<std::size_t>(cluster[a])] = true;
        ++out.collision_clusters;
        continue;  // the representative stays in the cuckoo arrays
      }
      const auto k = key(members[a]);
      out.exact_keys.emplace_back(k.begin(), k.end());
    }
  }

  out.exact_table_bytes =
      static_cast<std::size_t>(static_cast<double>(out.exact_keys.size()) * (key_bits + 64) / 8.0);
  return out;
}

}  // namespace ht::htpr
