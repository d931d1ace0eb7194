// Dynamic variable reordering: Rudell's in-place adjacent exchange,
// full-order imposition, and sifting.
//
// The key property making in-place reordering safe is that a node's
// IDENTITY (NodeId) always denotes the same boolean function: the
// exchange rewrites a node's (var, lo, hi) triple but preserves its
// function, so every registered handle and every computed-cache entry
// stays valid. Only the *shape* of the DAG changes.

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "bdd/bdd.h"
#include "util/stopwatch.h"

namespace motsim::bdd {

namespace {
/// Hard sanity bound for set_variable_order's permutation check.
void require_permutation(const std::vector<VarIndex>& order, VarIndex n) {
  if (order.size() != n) {
    throw std::invalid_argument("set_variable_order: wrong length");
  }
  std::vector<std::uint8_t> seen(n, 0);
  for (VarIndex v : order) {
    if (v >= n || seen[v]) {
      throw std::invalid_argument("set_variable_order: not a permutation");
    }
    seen[v] = 1;
  }
}
}  // namespace

void BddManager::swap_adjacent_levels(VarIndex level) {
  if (level + 1 >= num_vars_) {
    throw std::out_of_range("swap_adjacent_levels: level out of range");
  }
  const VarIndex u = level2var_[level];      // moves down
  const VarIndex v = level2var_[level + 1];  // moves up

  // Swap the order maps first so make_node's invariant checks see the
  // new order while the rewrite runs.
  std::swap(level2var_[level], level2var_[level + 1]);
  std::swap(var2level_[u], var2level_[v]);

  // A mid-exchange overflow would leave the table half-rewritten, so
  // the hard limit is suspended for the duration of the swap (the
  // transient growth is at most the u-level population).
  const std::size_t saved_limit = hard_node_limit_;
  hard_node_limit_ = static_cast<std::size_t>(-1);

  // Only u-nodes with a v-child change shape. Snapshot the used slots:
  // nodes created by make_node below never need rewriting (their
  // children are strictly below the v level).
  slot_buf_.assign(survivors_.begin(), survivors_.end());
  slot_buf_.insert(slot_buf_.end(), fresh_.begin(), fresh_.end());

  for (const NodeId id : slot_buf_) {
    if (nodes_[id].var != u) continue;
    const NodeId f0 = nodes_[id].lo;
    const NodeId f1 = nodes_[id].hi;
    const bool lo_branches = nodes_[f0].var == v;
    const bool hi_branches = nodes_[f1].var == v;
    if (!lo_branches && !hi_branches) continue;  // valid as-is

    const NodeId f00 = lo_branches ? nodes_[f0].lo : f0;
    const NodeId f01 = lo_branches ? nodes_[f0].hi : f0;
    const NodeId f10 = hi_branches ? nodes_[f1].lo : f1;
    const NodeId f11 = hi_branches ? nodes_[f1].hi : f1;

    // ite(u, f1, f0) == ite(v, ite(u, f11, f01), ite(u, f10, f00)).
    const NodeId n0 = make_node(u, f00, f10);
    const NodeId n1 = make_node(u, f01, f11);
    assert(n0 != n1 && "swap produced a reducible node");

    unlink_from_bucket(id);
    Node& node = nodes_[id];
    node.var = v;
    node.lo = n0;
    node.hi = n1;
    const std::size_t bucket = bucket_of(v, n0, n1);
    node.next = buckets_[bucket];
    buckets_[bucket] = id;
  }

  hard_node_limit_ = saved_limit;
}

void BddManager::set_variable_order(const std::vector<VarIndex>& order) {
  require_permutation(order, num_vars_);
  const Stopwatch reorder_timer;
  // Selection-sort with adjacent exchanges: bubble each target
  // variable up to its final level, top to bottom.
  for (VarIndex target = 0; target < num_vars_; ++target) {
    VarIndex at = var2level_[order[target]];
    assert(at >= target && "already-placed variable moved");
    while (at > target) {
      swap_adjacent_levels(at - 1);
      --at;
    }
  }
  gc();  // reclaim the exchange garbage in one sweep
  stats_.reorder_seconds += reorder_timer.elapsed_seconds();
}

std::size_t BddManager::reorder_sift(double max_growth) {
  if (max_growth < 1.0) {
    throw std::invalid_argument("reorder_sift: max_growth must be >= 1");
  }
  const Stopwatch reorder_timer;
  gc();
  if (num_vars_ < 2) {
    stats_.reorder_seconds += reorder_timer.elapsed_seconds();
    return live_count_;
  }
  const std::size_t ceiling = static_cast<std::size_t>(
      static_cast<double>(live_count_) * max_growth) + 16;

  // Most populous variables first (they have the most leverage). Right
  // after gc() the survivor list is exactly the live set.
  std::vector<std::size_t> population(num_vars_, 0);
  for (const NodeId id : survivors_) ++population[nodes_[id].var];
  std::vector<VarIndex> order_of_attack(num_vars_);
  for (VarIndex i = 0; i < num_vars_; ++i) order_of_attack[i] = i;
  std::sort(order_of_attack.begin(), order_of_attack.end(),
            [&](VarIndex a, VarIndex b) {
              return population[a] > population[b];
            });

  for (VarIndex v : order_of_attack) {
    const VarIndex start = var2level_[v];
    VarIndex best_level = start;
    std::size_t best_size = live_count_;

    // Phase 1: sift down to the bottom.
    while (var2level_[v] + 1 < num_vars_) {
      swap_adjacent_levels(var2level_[v]);
      gc();
      if (live_count_ < best_size) {
        best_size = live_count_;
        best_level = var2level_[v];
      }
      if (live_count_ > ceiling) break;
    }
    // Phase 2: sift up to the top.
    while (var2level_[v] > 0) {
      swap_adjacent_levels(var2level_[v] - 1);
      gc();
      if (live_count_ <= best_size) {  // prefer the highest tied level
        best_size = live_count_;
        best_level = var2level_[v];
      }
      if (live_count_ > ceiling) break;
    }
    // Phase 3: settle at the best level seen.
    while (var2level_[v] < best_level) {
      swap_adjacent_levels(var2level_[v]);
    }
    while (var2level_[v] > best_level) {
      swap_adjacent_levels(var2level_[v] - 1);
    }
    gc();
  }
  stats_.reorder_seconds += reorder_timer.elapsed_seconds();
  return live_count_;
}

}  // namespace motsim::bdd
