#include "sim3/levelized.h"

#include <algorithm>
#include <stdexcept>

namespace motsim {

LevelizedCircuit::LevelizedCircuit(const Netlist& netlist)
    : netlist_(&netlist) {
  if (!netlist.finalized()) {
    throw std::logic_error("LevelizedCircuit requires a finalized netlist");
  }

  inputs_ = netlist.inputs();
  dffs_ = netlist.dffs();
  outputs_ = netlist.outputs();
  dff_d_.reserve(dffs_.size());
  for (NodeIndex dff : dffs_) dff_d_.push_back(netlist.gate(dff).fanins[0]);

  // The netlist's topo_order is only path-monotone in level, not
  // globally sorted (Kahn with a LIFO ready stack interleaves cones),
  // so sort the combinational nodes by level explicitly: every gate of
  // level L depends only on levels < L, which makes the level-sorted
  // order a valid evaluation order and each level a contiguous run.
  std::vector<NodeIndex> order;
  order.reserve(netlist.node_count());
  for (NodeIndex n : netlist.topo_order()) {
    const Gate& g = netlist.gate(n);
    if (is_frame_input(g.type)) {
      if (g.type == GateType::Const0) consts_.emplace_back(n, Val3::Zero);
      if (g.type == GateType::Const1) consts_.emplace_back(n, Val3::One);
      continue;
    }
    order.push_back(n);
  }
  // Within a level gates are independent, so group them by opcode as a
  // secondary key: the packed kernel's dispatch then sees long runs of
  // the same operation instead of a branch-unfriendly mix.
  std::stable_sort(order.begin(), order.end(),
                   [&netlist](NodeIndex a, NodeIndex b) {
                     const std::uint32_t la = netlist.level(a);
                     const std::uint32_t lb = netlist.level(b);
                     if (la != lb) return la < lb;
                     return netlist.type(a) < netlist.type(b);
                   });

  gates_.reserve(order.size());
  std::uint32_t current_level = 0;
  level_offsets_.push_back(0);
  for (NodeIndex n : order) {
    const Gate& g = netlist.gate(n);
    // Record each level boundary as it passes (a level may contribute
    // no gates, e.g. pure-DFF levels).
    const std::uint32_t lvl = netlist.level(n);
    while (current_level < lvl) {
      level_offsets_.push_back(static_cast<std::uint32_t>(gates_.size()));
      ++current_level;
    }
    LevGate lg;
    lg.op = g.type;
    lg.arity = static_cast<std::uint16_t>(g.fanins.size());
    lg.node = n;
    if (lg.arity > 2) {
      lg.in0 = static_cast<std::uint32_t>(fanins_.size());
      fanins_.insert(fanins_.end(), g.fanins.begin(), g.fanins.end());
    } else {
      if (lg.arity >= 1) {
        lg.in0 = g.fanins[0];
        lg.in1 = lg.arity == 2 ? g.fanins[1] : g.fanins[0];
      }
      switch (g.type) {  // two-input Kleene-AND polarity form
        case GateType::And:
        case GateType::Buf:
          lg.and_form = kAndFormValid;
          break;
        case GateType::Nand:
        case GateType::Not:
          lg.and_form = kAndFormValid | kAndFormInvOut;
          break;
        case GateType::Or:
          lg.and_form =
              kAndFormValid | kAndFormInvIn0 | kAndFormInvIn1 | kAndFormInvOut;
          break;
        case GateType::Nor:
          lg.and_form = kAndFormValid | kAndFormInvIn0 | kAndFormInvIn1;
          break;
        default:  // Xor/Xnor (or arity 0): opcode switch
          break;
      }
      if (lg.arity == 0) lg.and_form = 0;
    }
    gates_.push_back(lg);
  }
  level_offsets_.push_back(static_cast<std::uint32_t>(gates_.size()));

  // Inverse map (node -> driving gate) and CSR fanout adjacency, both
  // over compiled gate indices; the sparse kernels schedule through
  // these.
  const auto for_each_fanin = [this](const LevGate& g, auto&& fn) {
    if (g.arity > 2) {
      for (std::uint32_t p = 0; p < g.arity; ++p) fn(fanins_[g.in0 + p]);
    } else {
      if (g.arity >= 1) fn(g.in0);
      if (g.arity == 2) fn(g.in1);
    }
  };
  gate_of_.assign(netlist.node_count(), kNoGate);
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    gate_of_[gates_[i].node] = static_cast<std::uint32_t>(i);
  }
  fanout_offsets_.assign(netlist.node_count() + 1, 0);
  std::size_t edge_count = 0;
  for (const LevGate& g : gates_) {
    for_each_fanin(g, [&](NodeIndex f) {
      ++fanout_offsets_[f + 1];
      ++edge_count;
    });
  }
  for (std::size_t n = 1; n < fanout_offsets_.size(); ++n) {
    fanout_offsets_[n] += fanout_offsets_[n - 1];
  }
  // Filled in consumer-node order, so every range matches the
  // netlist's fanout order.
  fanout_gates_.resize(edge_count);
  std::vector<std::uint32_t> cursor(fanout_offsets_.begin(),
                                    fanout_offsets_.end() - 1);
  for (NodeIndex n = 0; n < netlist.node_count(); ++n) {
    const std::uint32_t i = gate_of_[n];
    if (i == kNoGate) continue;
    for_each_fanin(gates_[i],
                   [&](NodeIndex f) { fanout_gates_[cursor[f]++] = i; });
  }
}

}  // namespace motsim
