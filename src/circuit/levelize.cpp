#include "circuit/levelize.h"

#include <stdexcept>

namespace motsim {

EventQueue::EventQueue(const Netlist& netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("EventQueue requires a finalized netlist");
  }
  level_.resize(netlist.node_count());
  for (NodeIndex n = 0; n < netlist.node_count(); ++n) {
    level_[n] = netlist.level(n);
  }
  buckets_.resize(netlist.max_level() + 1);
  queued_.assign(netlist.node_count(), 0);
}

void EventQueue::clear() {
  for (auto& bucket : buckets_) {
    for (NodeIndex n : bucket) queued_[n] = 0;
    bucket.clear();
  }
  pending_ = 0;
  cursor_ = 0;
}

std::vector<std::vector<NodeIndex>> nodes_by_level(const Netlist& netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("nodes_by_level requires a finalized netlist");
  }
  std::vector<std::vector<NodeIndex>> levels(netlist.max_level() + 1);
  for (NodeIndex n = 0; n < netlist.node_count(); ++n) {
    levels[netlist.level(n)].push_back(n);
  }
  return levels;
}

}  // namespace motsim
