// Structural analysis of BDDs: support, satisfying-assignment count,
// witness extraction, DAG size and Graphviz export.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.h"

namespace motsim::bdd {

bool Bdd::eval(const std::vector<bool>& assignment) const {
  assert(!is_null());
  NodeId n = id_;
  while (n > kTrueId) {
    const VarIndex v = mgr().var_of(n);
    const bool bit = v < assignment.size() ? assignment[v] : false;
    n = bit ? mgr().high_of(n) : mgr().low_of(n);
  }
  return n == kTrueId;
}

void BddManager::collect_support(NodeId root) {
  support_vars_.clear();
  const std::uint32_t seen = next_epoch();
  if (root <= kTrueId) return;
  stamp_[root] = seen;
  stack_.push_back(root);
  while (!stack_.empty()) {
    const Node& node = nodes_[stack_.back()];
    stack_.pop_back();
    if (var_stamp_[node.var] != seen) {
      var_stamp_[node.var] = seen;
      support_vars_.push_back(node.var);
    }
    for (const NodeId child : {node.lo, node.hi}) {
      if (child > kTrueId && stamp_[child] != seen) {
        stamp_[child] = seen;
        stack_.push_back(child);
      }
    }
  }
}

std::vector<VarIndex> BddManager::support(const Bdd& f) {
  assert(f.manager() == this);
  collect_support(f.id());
  std::vector<VarIndex> out = support_vars_;
  std::sort(out.begin(), out.end());
  return out;
}

double BddManager::sat_count(const Bdd& f, VarIndex nvars) {
  assert(f.manager() == this);
  // count(n) = number of satisfying assignments over the variables
  // strictly below var_of(n)'s level... computed as fraction then
  // scaled: density(n) = satisfying fraction of the full cube below n.
  std::unordered_map<NodeId, double> density;
  auto rec = [&](auto&& self, NodeId n) -> double {
    if (n == kFalseId) return 0.0;
    if (n == kTrueId) return 1.0;
    if (auto it = density.find(n); it != density.end()) return it->second;
    const Node& node = nodes_[n];
    const double d = 0.5 * (self(self, node.lo) + self(self, node.hi));
    density.emplace(n, d);
    return d;
  };
  return rec(rec, f.id()) * std::pow(2.0, static_cast<double>(nvars));
}

std::optional<std::vector<std::int8_t>> BddManager::pick_one(const Bdd& f) {
  assert(f.manager() == this);
  if (f.id() == kFalseId) return std::nullopt;
  std::vector<std::int8_t> assignment(num_vars_, -1);
  NodeId n = f.id();
  while (n > kTrueId) {
    const Node& node = nodes_[n];
    if (node.hi != kFalseId) {
      assignment[node.var] = 1;
      n = node.hi;
    } else {
      assignment[node.var] = 0;
      n = node.lo;
    }
  }
  return assignment;
}

std::size_t BddManager::node_count(const Bdd& f) const {
  const Bdd fs[] = {f};
  return node_count(std::span<const Bdd>(fs));
}

std::size_t BddManager::node_count(std::span<const Bdd> fs) const {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> stack;
  for (const Bdd& f : fs) {
    if (!f.is_null()) stack.push_back(f.id());
  }
  std::size_t count = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (n <= kTrueId || !seen.insert(n).second) continue;
    ++count;
    stack.push_back(nodes_[n].lo);
    stack.push_back(nodes_[n].hi);
  }
  return count;
}

std::string BddManager::to_dot(const Bdd& f, const std::string& name) {
  assert(f.manager() == this);
  std::ostringstream os;
  os << "digraph \"" << name << "\" {\n";
  os << "  rankdir=TB;\n";
  os << "  node0 [label=\"0\", shape=box];\n";
  os << "  node1 [label=\"1\", shape=box];\n";
  std::unordered_set<NodeId> seen{kFalseId, kTrueId};
  std::vector<NodeId> stack{f.id()};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    const Node& node = nodes_[n];
    os << "  node" << n << " [label=\"x" << node.var
       << "\", shape=circle];\n";
    os << "  node" << n << " -> node" << node.lo << " [style=dashed];\n";
    os << "  node" << n << " -> node" << node.hi << ";\n";
    stack.push_back(node.lo);
    stack.push_back(node.hi);
  }
  os << "}\n";
  return os.str();
}

}  // namespace motsim::bdd
