#ifndef MOTSIM_BDD_BDD_INTERNAL_H
#define MOTSIM_BDD_BDD_INTERNAL_H

// Hit paths of the OBDD package, inline so that the apply kernels of
// every src/bdd/*.cpp file reach them without a call: the unique-table
// probe of make_node and the computed-cache lookup and insert. Private
// to the package; nothing outside src/bdd/ includes this header.

#include <cassert>
#include <cstdint>

#include "bdd/bdd.h"

namespace motsim::bdd {

namespace detail {

/// 64-bit avalanche mixer (Murmur3 finalizer) for the unique table and
/// the computed cache.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace detail

inline std::size_t BddManager::bucket_of(VarIndex var, NodeId lo,
                                         NodeId hi) const noexcept {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(var) << 40) ^
      (static_cast<std::uint64_t>(lo) << 20) ^ static_cast<std::uint64_t>(hi);
  return static_cast<std::size_t>(detail::mix64(key)) & (buckets_.size() - 1);
}

inline NodeId BddManager::make_node(VarIndex var, NodeId lo, NodeId hi) {
  // OBDD reduction rule: equal children collapse to the child.
  if (lo == hi) return lo;

  assert(var2level_[var] < level_of(lo) && var2level_[var] < level_of(hi) &&
         "children must be below the node in the variable order");

  const std::size_t bucket = bucket_of(var, lo, hi);
  for (NodeId n = buckets_[bucket]; n != kFalseId; n = nodes_[n].next) {
    const Node& node = nodes_[n];
    if (node.var == var && node.lo == lo && node.hi == hi) {
      ++stats_.unique_hits;
      return n;
    }
  }
  return allocate_slot(var, lo, hi);
}

inline bool BddManager::cache_lookup(Op op, NodeId f, NodeId g, NodeId h,
                                     NodeId& out) {
  ++stats_.cache_lookups;
  const std::uint64_t key =
      detail::mix64((static_cast<std::uint64_t>(op) << 56) ^
                    (static_cast<std::uint64_t>(f) << 34) ^
                    (static_cast<std::uint64_t>(g) << 12) ^ h);
  const CacheEntry& e = cache_[key & cache_mask_];
  const std::uint32_t tag =
      (cache_generation_ << 8) | static_cast<std::uint32_t>(op);
  if (e.tag == tag && e.f == f && e.g == g && e.h == h) {
    ++stats_.cache_hits;
    out = e.result;
    return true;
  }
  return false;
}

inline void BddManager::cache_insert(Op op, NodeId f, NodeId g, NodeId h,
                                     NodeId result) {
  const std::uint64_t key =
      detail::mix64((static_cast<std::uint64_t>(op) << 56) ^
                    (static_cast<std::uint64_t>(f) << 34) ^
                    (static_cast<std::uint64_t>(g) << 12) ^ h);
  cache_[key & cache_mask_] = CacheEntry{
      f, g, h, result,
      (cache_generation_ << 8) | static_cast<std::uint32_t>(op)};
}

}  // namespace motsim::bdd

#endif  // MOTSIM_BDD_BDD_INTERNAL_H
