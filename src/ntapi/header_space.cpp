#include "ntapi/header_space.hpp"

#include <algorithm>
#include <compare>
#include <span>

#include "net/headers.hpp"

namespace ht::ntapi {

// --- KeyBits: 128-bit ternary cube ------------------------------------------

namespace {

/// Split a (offset, width) span into the per-word (index, shift, bits)
/// pieces, calling `fn(word, shift_in_word, bits, shift_in_value)`.
template <typename Fn>
void for_each_word(unsigned offset, unsigned width, Fn&& fn) {
  unsigned done = 0;
  while (done < width) {
    const unsigned bit = offset + done;
    const unsigned word = bit / KeyBits::kWordBits;
    const unsigned in_word = bit % KeyBits::kWordBits;
    const unsigned chunk = std::min(width - done, KeyBits::kWordBits - in_word);
    fn(word, in_word, chunk, done);
    done += chunk;
  }
}

std::uint64_t chunk_mask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

}  // namespace

void KeyBits::set_bits(unsigned offset, unsigned width, std::uint64_t value) {
  if (width == 0 || offset >= kBits) return;  // zero-width field: no constraint
  width = std::min(width, kBits - offset);
  for_each_word(offset, width, [&](unsigned word, unsigned shift, unsigned bits, unsigned from) {
    const std::uint64_t m = chunk_mask(bits);
    const std::uint64_t v = (value >> from) & m;
    value_[word] = (value_[word] & ~(m << shift)) | (v << shift);
    mask_[word] |= m << shift;
  });
}

std::uint64_t KeyBits::get_bits(unsigned offset, unsigned width) const {
  if (width == 0 || offset >= kBits) return 0;
  width = std::min(width, kBits - offset);
  std::uint64_t out = 0;
  for_each_word(offset, width, [&](unsigned word, unsigned shift, unsigned bits, unsigned from) {
    out |= ((value_[word] >> shift) & chunk_mask(bits)) << from;
  });
  return out;
}

std::uint64_t KeyBits::get_mask(unsigned offset, unsigned width) const {
  if (width == 0 || offset >= kBits) return 0;
  width = std::min(width, kBits - offset);
  std::uint64_t out = 0;
  for_each_word(offset, width, [&](unsigned word, unsigned shift, unsigned bits, unsigned from) {
    out |= ((mask_[word] >> shift) & chunk_mask(bits)) << from;
  });
  return out;
}

unsigned KeyBits::cared_count() const {
  unsigned n = 0;
  for (const std::uint64_t w : mask_) {
    std::uint64_t v = w;
    while (v != 0) {
      v &= v - 1;
      ++n;
    }
  }
  return n;
}

std::optional<KeyBits> KeyBits::intersect(const KeyBits& a, const KeyBits& b) {
  KeyBits out;
  for (std::size_t w = 0; w < 2; ++w) {
    const std::uint64_t both = a.mask_[w] & b.mask_[w];
    if (((a.value_[w] ^ b.value_[w]) & both) != 0) return std::nullopt;
    out.mask_[w] = a.mask_[w] | b.mask_[w];
    out.value_[w] = (a.value_[w] & a.mask_[w]) | (b.value_[w] & b.mask_[w]);
  }
  return out;
}

bool KeyBits::covers(const KeyBits& other) const {
  // Every bit this cube cares about must be cared about by `other` with
  // the same value; `other` may constrain more bits (it is a subset).
  for (std::size_t w = 0; w < 2; ++w) {
    if ((mask_[w] & ~other.mask_[w]) != 0) return false;
    if (((value_[w] ^ other.value_[w]) & mask_[w]) != 0) return false;
  }
  return true;
}

net::FieldId reversed_field(net::FieldId field) {
  using F = net::FieldId;
  switch (field) {
    case F::kIpv4Sip:
      return F::kIpv4Dip;
    case F::kIpv4Dip:
      return F::kIpv4Sip;
    case F::kTcpSport:
      return F::kTcpDport;
    case F::kTcpDport:
      return F::kTcpSport;
    case F::kUdpSport:
      return F::kUdpDport;
    case F::kUdpDport:
      return F::kUdpSport;
    default:
      return field;
  }
}

namespace {

/// Default value of `field` in the materialized template (what an unset
/// field carries on the wire).
std::uint64_t template_default(const htps::TemplateSpec& spec, net::FieldId field) {
  const auto it = spec.header_init.find(field);
  if (it != spec.header_init.end()) return it->second;
  if (!net::is_header_field(field)) return 0;
  const net::Packet pkt = spec.materialize();
  return net::has_field(pkt, field) ? net::get_field(pkt, field) : 0;
}

/// Append the values `field` can take in the traffic of one trigger to
/// `out` (unsorted, possibly repeated). `as_response` looks at the
/// reversed field (what the peer echoes back).
bool field_values(const Task& task, std::size_t trigger_index,
                  const htps::TemplateSpec& spec, net::FieldId field, bool as_response,
                  std::size_t cap, std::vector<std::uint64_t>& out) {
  const net::FieldId src = as_response ? reversed_field(field) : field;
  const auto& trig = task.triggers()[trigger_index];
  if (const auto* binding = trig.find(src)) {
    if (const auto* value = std::get_if<Value>(&binding->source)) {
      return value->enumerate(out, cap);
    }
    // QueryFieldRef / MetaFieldRef: the value depends on received packets
    // or on timestamps — not enumerable ahead of time.
    return false;
  }
  out.push_back(template_default(spec, src));
  return true;
}

/// Append the cartesian product of the sorted per-field value lists to
/// `out` in lexicographic order (last field varies fastest), so the rows
/// come out sorted and unique.
void append_product(const std::vector<std::vector<std::uint64_t>>& per_field,
                    std::vector<std::uint64_t>& out) {
  std::size_t rows = 1;
  for (const auto& vals : per_field) rows *= vals.size();
  if (rows == 0) return;
  out.reserve(out.size() + rows * per_field.size());
  std::vector<std::size_t> idx(per_field.size(), 0);
  while (true) {
    for (std::size_t f = 0; f < per_field.size(); ++f) out.push_back(per_field[f][idx[f]]);
    std::size_t f = per_field.size();
    for (; f > 0; --f) {
      if (++idx[f - 1] < per_field[f - 1].size()) break;
      idx[f - 1] = 0;
    }
    if (f == 0) return;
  }
}

/// Union of two sorted, unique row-major key lists, sorted and unique.
std::vector<std::uint64_t> merge_rows(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b, std::size_t arity) {
  std::vector<std::uint64_t> out;
  out.reserve(a.size() + b.size());
  while (!a.empty() && !b.empty()) {
    const auto ra = a.first(arity), rb = b.first(arity);
    const auto order =
        std::lexicographical_compare_three_way(ra.begin(), ra.end(), rb.begin(), rb.end());
    const auto row = order <= 0 ? ra : rb;
    out.insert(out.end(), row.begin(), row.end());
    if (order <= 0) a = a.subspan(arity);
    if (order >= 0) b = b.subspan(arity);  // equal rows: emit once, skip both
  }
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

KeySpace enumerate_key_space(const Task& task, const Query& query,
                             const std::vector<net::FieldId>& key_fields,
                             const std::vector<htps::TemplateSpec>& templates, std::size_t cap) {
  KeySpace space{.arity = key_fields.size()};
  if (key_fields.empty()) return space;
  const KeySpace inexact{.arity = key_fields.size(), .exact = false};

  // Which triggers contribute, and in which direction.
  std::vector<std::size_t> trigger_set;
  const bool as_response = !query.monitored_trigger().has_value();
  if (query.monitored_trigger()) {
    trigger_set.push_back(query.monitored_trigger()->index);
  } else {
    for (std::size_t t = 0; t < task.triggers().size(); ++t) trigger_set.push_back(t);
  }
  if (trigger_set.empty()) return inexact;  // nothing known about foreign traffic

  std::vector<std::vector<std::uint64_t>> per_field(key_fields.size());
  std::vector<std::uint64_t> block;
  for (const std::size_t t : trigger_set) {
    // Sorted, unique per-field values for this trigger. Its key count is
    // their product; past the cap the whole space is inexact.
    std::uint64_t product = 1;
    for (std::size_t f = 0; f < key_fields.size(); ++f) {
      auto& vals = per_field[f];
      vals.clear();
      if (!field_values(task, t, templates[t], key_fields[f], as_response, cap, vals)) {
        return inexact;
      }
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
      product *= vals.size();
      if (product > cap) return inexact;
    }
    if (space.words.empty()) {
      append_product(per_field, space.words);
      continue;
    }
    // Merging each trigger's sorted block into the union keeps it sorted
    // and unique without holding every trigger's keys at once.
    block.clear();
    append_product(per_field, block);
    space.words = merge_rows(space.words, block, space.arity);
    if (space.size() > cap) return inexact;
  }
  return space;
}

}  // namespace ht::ntapi
