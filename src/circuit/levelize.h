#ifndef MOTSIM_CIRCUIT_LEVELIZE_H
#define MOTSIM_CIRCUIT_LEVELIZE_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"

namespace motsim {

/// Level-bucketed event queue for event-driven simulation.
///
/// Both the three-valued and the symbolic fault simulators propagate
/// fault effects in level order: a node must be (re)evaluated only
/// after all of its possibly-divergent fanins. The queue holds each
/// node at most once (a `queued` bitmap suppresses duplicates) and
/// pops nodes level by level.
class EventQueue {
 public:
  explicit EventQueue(const Netlist& netlist);

  /// Schedules `node` for evaluation; duplicates are ignored.
  void push(NodeIndex node) {
    if (queued_[node]) return;
    queued_[node] = 1;
    const std::uint32_t level = level_[node];
    buckets_[level].push_back(node);
    ++pending_;
    if (level < cursor_) cursor_ = level;
  }

  /// Pops the lowest-level pending node; kNoNode when empty.
  [[nodiscard]] NodeIndex pop() {
    if (pending_ == 0) return kNoNode;
    while (buckets_[cursor_].empty()) ++cursor_;
    const NodeIndex node = buckets_[cursor_].back();
    buckets_[cursor_].pop_back();
    queued_[node] = 0;
    --pending_;
    return node;
  }

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

  /// Forgets all pending events (e.g. after a fault is detected and
  /// dropped mid-propagation).
  void clear();

 private:
  std::vector<std::uint32_t> level_;  ///< per node, copied from the netlist
  std::vector<std::vector<NodeIndex>> buckets_;  ///< one per level
  std::vector<std::uint8_t> queued_;
  std::size_t pending_ = 0;
  std::uint32_t cursor_ = 0;  ///< lowest level that may be non-empty
};

/// Nodes grouped by combinational level (level 0 = frame inputs);
/// useful for full-pass evaluations.
[[nodiscard]] std::vector<std::vector<NodeIndex>> nodes_by_level(
    const Netlist& netlist);

}  // namespace motsim

#endif  // MOTSIM_CIRCUIT_LEVELIZE_H
