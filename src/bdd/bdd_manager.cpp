#include <algorithm>
#include <cassert>
#include <utility>

#include "bdd/bdd.h"
#include "util/stopwatch.h"

namespace motsim::bdd {

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(BddManager* mgr, NodeId id) noexcept { attach(mgr, id); }

Bdd::Bdd(const Bdd& other) noexcept { attach(other.mgr_, other.id_); }

Bdd::Bdd(Bdd&& other) noexcept {
  attach(other.mgr_, other.id_);
  other.detach();
}

// Assignment between handles of one manager keeps the target's
// registry link: only the node id changes, so the registry (the GC root
// set) is touched at most for the moved-from handle.

Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (mgr_ != nullptr && mgr_ == other.mgr_) {
    id_ = other.id_;
  } else if (this != &other) {
    detach();
    attach(other.mgr_, other.id_);
  }
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr && mgr_ == other.mgr_) {
    id_ = other.id_;
  } else {
    detach();
    attach(other.mgr_, other.id_);
  }
  other.detach();
  return *this;
}

Bdd::~Bdd() { detach(); }

void Bdd::attach(BddManager* mgr, NodeId id) noexcept {
  mgr_ = mgr;
  id_ = id;
  if (mgr_ != nullptr) mgr_->register_handle(this);
}

void Bdd::detach() noexcept {
  if (mgr_ != nullptr) {
    mgr_->unregister_handle(this);
    mgr_ = nullptr;
    id_ = kFalseId;
  }
}

VarIndex Bdd::top_var() const {
  assert(mgr_ != nullptr);
  return mgr_->var_of(id_);
}

Bdd Bdd::high() const {
  assert(mgr_ != nullptr && !is_const());
  return Bdd(mgr_, mgr_->high_of(id_));
}

Bdd Bdd::low() const {
  assert(mgr_ != nullptr && !is_const());
  return Bdd(mgr_, mgr_->low_of(id_));
}

Bdd Bdd::operator&(const Bdd& rhs) const { return mgr_->apply_and(*this, rhs); }
Bdd Bdd::operator|(const Bdd& rhs) const { return mgr_->apply_or(*this, rhs); }
Bdd Bdd::operator^(const Bdd& rhs) const { return mgr_->apply_xor(*this, rhs); }
Bdd Bdd::operator!() const { return mgr_->apply_not(*this); }
Bdd Bdd::xnor(const Bdd& rhs) const { return mgr_->apply_xnor(*this, rhs); }
Bdd Bdd::implies(const Bdd& rhs) const {
  return mgr_->apply_or(mgr_->apply_not(*this), rhs);
}

std::size_t Bdd::node_count() const {
  assert(mgr_ != nullptr);
  return mgr_->node_count(*this);
}

// ---------------------------------------------------------------------------
// BddManager: construction, node table, unique table, GC
// ---------------------------------------------------------------------------

namespace {

/// 64-bit avalanche mixer (Murmur3 finalizer) for unique-table hashing.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

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
}

BddManager::~BddManager() {
  // Handles must not outlive the manager; detach any stragglers so
  // their destructors do not touch freed memory.
  while (handles_head_ != nullptr) {
    Bdd* h = handles_head_;
    h->mgr_ = nullptr;
    handles_head_ = h->reg_next_;
    if (handles_head_ != nullptr) handles_head_->reg_prev_ = nullptr;
    h->reg_prev_ = h->reg_next_ = nullptr;
  }
}

void BddManager::register_handle(Bdd* h) noexcept {
  h->reg_prev_ = nullptr;
  h->reg_next_ = handles_head_;
  if (handles_head_ != nullptr) handles_head_->reg_prev_ = h;
  handles_head_ = h;
  ++handle_counter_;
}

void BddManager::unregister_handle(Bdd* h) noexcept {
  if (h->reg_prev_ != nullptr) {
    h->reg_prev_->reg_next_ = h->reg_next_;
  } else {
    handles_head_ = h->reg_next_;
  }
  if (h->reg_next_ != nullptr) h->reg_next_->reg_prev_ = h->reg_prev_;
  h->reg_prev_ = h->reg_next_ = nullptr;
  --handle_counter_;
}

std::size_t BddManager::bucket_of(VarIndex var, NodeId lo,
                                  NodeId hi) const noexcept {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(var) << 40) ^
      (static_cast<std::uint64_t>(lo) << 20) ^ static_cast<std::uint64_t>(hi);
  return static_cast<std::size_t>(mix64(key)) & (buckets_.size() - 1);
}

NodeId BddManager::make_node(VarIndex var, NodeId lo, NodeId hi) {
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
  return Bdd(this, make_node(index, kFalseId, kTrueId));
}

Bdd BddManager::nvar(VarIndex index) {
  ensure_vars(index + 1);
  return Bdd(this, make_node(index, kTrueId, kFalseId));
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

  // Mark: iterative DFS from every handle (BDDs can be deep on wide
  // circuits); a node is marked when its stamp equals this epoch.
  const std::uint32_t marked = next_epoch();
  for (const Bdd* h = handles_head_; h != nullptr; h = h->reg_next_) {
    if (h->id_ <= kTrueId || stamp_[h->id_] == marked) continue;
    stamp_[h->id_] = marked;
    stack_.push_back(h->id_);
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

  // Sweep: only the last survivors and the slots allocated since can
  // hold nodes. Dead ones leave their bucket chain for the free list.
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

void BddManager::maybe_auto_gc() {
  if (live_count_ >= next_gc_at_) gc();
}

// ---------------------------------------------------------------------------
// Computed cache
// ---------------------------------------------------------------------------

bool BddManager::cache_lookup(Op op, NodeId f, NodeId g, NodeId h,
                              NodeId& out) {
  ++stats_.cache_lookups;
  const std::uint64_t key =
      mix64((static_cast<std::uint64_t>(op) << 56) ^
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

void BddManager::cache_insert(Op op, NodeId f, NodeId g, NodeId h,
                              NodeId result) {
  const std::uint64_t key =
      mix64((static_cast<std::uint64_t>(op) << 56) ^
            (static_cast<std::uint64_t>(f) << 34) ^
            (static_cast<std::uint64_t>(g) << 12) ^ h);
  cache_[key & cache_mask_] = CacheEntry{
      f, g, h, result,
      (cache_generation_ << 8) | static_cast<std::uint32_t>(op)};
}

}  // namespace motsim::bdd
