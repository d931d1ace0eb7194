#include <algorithm>
#include <cassert>
#include <utility>

#include "bdd/bdd.h"
#include "bdd/bdd_internal.h"
#include "util/stopwatch.h"

namespace motsim::bdd {

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

VarIndex Bdd::top_var() const {
  assert(!is_null());
  return mgr().var_of(id_);
}

Bdd Bdd::high() const {
  assert(!is_null() && !is_const());
  return Bdd(roots_, mgr().high_of(id_));
}

Bdd Bdd::low() const {
  assert(!is_null() && !is_const());
  return Bdd(roots_, mgr().low_of(id_));
}

Bdd Bdd::operator&(const Bdd& rhs) const { return mgr().apply_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr().apply_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr().apply_xor(*this, rhs); }
Bdd Bdd::operator!() const { return mgr().apply_not(*this); }
Bdd Bdd::xnor(const Bdd& rhs) const { return mgr().apply_xnor(*this, rhs); }
Bdd Bdd::implies(const Bdd& rhs) const {
  return mgr().apply_or(mgr().apply_not(*this), rhs);
}

std::size_t Bdd::node_count() const {
  assert(!is_null());
  return mgr().node_count(*this);
}

// ---------------------------------------------------------------------------
// BddManager: construction, node table, unique table, GC
// ---------------------------------------------------------------------------

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Cache generations occupy the upper 24 bits of an entry's tag.
constexpr std::uint32_t kMaxCacheGeneration = (1u << 24) - 1;

}  // namespace

BddManager::BddManager(const BddConfig& config)
    : hard_node_limit_(config.hard_node_limit),
      auto_gc_floor_(config.auto_gc_floor),
      next_gc_at_(config.auto_gc_floor) {
  const std::size_t cap = std::max<std::size_t>(config.initial_capacity, 16);
  nodes_.reserve(cap);

  // Terminal nodes occupy slots 0 and 1 and are never collected.
  nodes_.push_back(Node{kTerminalVar, kFalseId, kFalseId, 0});
  nodes_.push_back(Node{kTerminalVar, kTrueId, kTrueId, 0});

  buckets_.assign(round_up_pow2(cap), kFalseId);

  cache_.assign(std::size_t{1} << config.cache_size_log2, CacheEntry{});
  cache_mask_ = cache_.size() - 1;

  // Last, so that no later step can throw and leak the block.
  roots_ = new detail::RootTable{
      this, std::vector<std::uint32_t>(nodes_.size(), 0), 0};
}

BddManager::~BddManager() {
  // Handles that outlive the manager keep the root table alive and
  // read is_null(); the last of them frees it.
  roots_->owner = nullptr;
  if (roots_->total == 0) delete roots_;
}

NodeId BddManager::allocate_slot(VarIndex var, NodeId lo, NodeId hi) {
  if (live_count_ + 2 >= hard_node_limit_) throw BddOverflow(hard_node_limit_);

  // Grow the unique table before the load factor reaches 1, and before
  // the new slot is claimed: rehash() relinks every used slot, and a
  // claimed slot still holding stale fields would be linked into (and
  // then cut out of the middle of) some bucket chain.
  if (live_count_ + 3 > buckets_.size()) {
    rehash(buckets_.size() * 2);
  }

  NodeId id;
  if (free_head_ != kFalseId) {
    id = free_head_;
    free_head_ = nodes_[id].next;
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{});
    roots_->counts.push_back(0);
  }
  fresh_.push_back(id);
  ++live_count_;
  ++stats_.nodes_created;
  stats_.peak_live_nodes = std::max(stats_.peak_live_nodes, live_count_);

  const std::size_t bucket = bucket_of(var, lo, hi);
  nodes_[id] = Node{var, lo, hi, buckets_[bucket]};
  buckets_[bucket] = id;
  return id;
}

void BddManager::rehash(std::size_t new_bucket_count) {
  buckets_.assign(round_up_pow2(new_bucket_count), kFalseId);
  for (const std::vector<NodeId>* slots : {&survivors_, &fresh_}) {
    for (const NodeId id : *slots) {
      Node& node = nodes_[id];
      const std::size_t bucket = bucket_of(node.var, node.lo, node.hi);
      node.next = buckets_[bucket];
      buckets_[bucket] = id;
    }
  }
}

void BddManager::unlink_from_bucket(NodeId id) {
  const Node& node = nodes_[id];
  const std::size_t bucket = bucket_of(node.var, node.lo, node.hi);
  NodeId cur = buckets_[bucket];
  if (cur == id) {
    buckets_[bucket] = node.next;
    return;
  }
  while (nodes_[cur].next != id) cur = nodes_[cur].next;
  nodes_[cur].next = node.next;
}

Bdd BddManager::var(VarIndex index) {
  ensure_vars(index + 1);
  return handle(make_node(index, kFalseId, kTrueId));
}

Bdd BddManager::nvar(VarIndex index) {
  ensure_vars(index + 1);
  return handle(make_node(index, kTrueId, kFalseId));
}

void BddManager::ensure_vars(VarIndex count) {
  while (num_vars_ < count) {
    // New variables enter at the bottom of the order.
    var2level_.push_back(num_vars_);
    level2var_.push_back(num_vars_);
    ++num_vars_;
  }
}

std::uint32_t BddManager::next_epoch() {
  if (stamp_.size() < nodes_.size()) stamp_.resize(nodes_.size(), 0);
  if (var_stamp_.size() < num_vars_) var_stamp_.resize(num_vars_, 0);
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(var_stamp_.begin(), var_stamp_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

void BddManager::gc() {
  const Stopwatch gc_timer;
  ++stats_.gc_runs;
  const std::size_t live_before = live_count_;

  // Mark: iterative DFS (BDDs can be deep on wide circuits) from every
  // used slot a handle holds; only the last survivors and the slots
  // allocated since are used. A node is marked when its stamp equals
  // this epoch.
  const std::uint32_t marked = next_epoch();
  const std::vector<std::uint32_t>& counts = roots_->counts;
  for (const std::vector<NodeId>* slots : {&survivors_, &fresh_}) {
    for (const NodeId root : *slots) {
      if (counts[root] == 0 || stamp_[root] == marked) continue;
      stamp_[root] = marked;
      stack_.push_back(root);
      while (!stack_.empty()) {
        const Node& node = nodes_[stack_.back()];
        stack_.pop_back();
        for (const NodeId child : {node.lo, node.hi}) {
          if (child > kTrueId && stamp_[child] != marked) {
            stamp_[child] = marked;
            stack_.push_back(child);
          }
        }
      }
    }
  }

  // Sweep the same slots: dead ones leave their bucket chain for the
  // free list.
  slot_buf_.clear();
  for (const std::vector<NodeId>* slots : {&survivors_, &fresh_}) {
    for (const NodeId id : *slots) {
      if (stamp_[id] == marked) {
        slot_buf_.push_back(id);
        continue;
      }
      unlink_from_bucket(id);
      nodes_[id].next = free_head_;
      free_head_ = id;
    }
  }
  survivors_.swap(slot_buf_);
  fresh_.clear();
  live_count_ = survivors_.size();

  // Cached results may reference collected nodes; a new generation
  // invalidates them all. Only a wrap of the generation counter has to
  // touch the entries.
  if (++cache_generation_ > kMaxCacheGeneration) {
    for (CacheEntry& e : cache_) e.tag = 0;
    cache_generation_ = 1;
  }

  stats_.gc_reclaimed_nodes += live_before - live_count_;
  next_gc_at_ = std::max(auto_gc_floor_, live_count_ * 2);
  stats_.gc_seconds += gc_timer.elapsed_seconds();
}

}  // namespace motsim::bdd
