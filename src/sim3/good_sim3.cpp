#include "sim3/good_sim3.h"

#include <array>
#include <stdexcept>

namespace motsim {

namespace {

/// Output of every AND-form gate (LevGate::and_form) for every operand
/// pair: kAndFormTable[and_form & 7][3 * a + b], with the operands'
/// Val3 codes (0, 1, X = 2) as a and b. Built from and3/not3, so a
/// lookup is the Kleene evaluation by construction.
constexpr auto kAndFormTable = [] {
  std::array<std::array<Val3, 9>, 8> table{};
  constexpr std::array<Val3, 3> kValues = {Val3::Zero, Val3::One, Val3::X};
  for (unsigned pol = 0; pol < table.size(); ++pol) {
    for (const Val3 a : kValues) {
      for (const Val3 b : kValues) {
        const Val3 out = and3((pol & kAndFormInvIn0) != 0 ? not3(a) : a,
                              (pol & kAndFormInvIn1) != 0 ? not3(b) : b);
        table[pol][3 * static_cast<unsigned>(a) + static_cast<unsigned>(b)] =
            (pol & kAndFormInvOut) != 0 ? not3(out) : out;
      }
    }
  }
  return table;
}();

}  // namespace

Val3 eval_gate3(GateType type, const std::vector<Val3>& ins) {
  return eval_gate3(type, ins.size(), [&](std::size_t i) { return ins[i]; });
}

GoodSim3::GoodSim3(const Netlist& netlist, Val3 initial)
    : GoodSim3(std::make_shared<const LevelizedCircuit>(netlist), initial) {}

GoodSim3::GoodSim3(std::shared_ptr<const LevelizedCircuit> circuit,
                   Val3 initial)
    : circuit_(std::move(circuit)),
      values_(circuit_->netlist().node_count(), Val3::X),
      state_(circuit_->netlist().dff_count(), initial) {
  // Constants never change; write them once.
  for (const auto& [n, v] : circuit_->consts()) values_[n] = v;
}

void GoodSim3::set_state(std::vector<Val3> state) {
  if (state.size() != state_.size()) {
    throw std::invalid_argument("set_state: wrong state width");
  }
  state_ = std::move(state);
}

std::vector<Val3> GoodSim3::step(const std::vector<Val3>& inputs) {
  const LevelizedCircuit& lc = *circuit_;
  if (inputs.size() != lc.inputs().size()) {
    throw std::invalid_argument("step: wrong input vector width");
  }

  // Frame inputs.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values_[lc.inputs()[i]] = inputs[i];
  }
  for (std::size_t i = 0; i < lc.dffs().size(); ++i) {
    values_[lc.dffs()[i]] = state_[i];
  }

  // Combinational evaluation: one linear sweep over the compiled
  // level order. AND-form gates (every arity <= 2 gate but XOR/XNOR)
  // are one table load; the rest take the opcode switch.
  const NodeIndex* fanins = lc.fanins().data();
  for (const LevGate& g : lc.gates()) {
    if ((g.and_form & kAndFormValid) != 0) {
      values_[g.node] =
          kAndFormTable[g.and_form & 7]
                       [3 * static_cast<unsigned>(values_[g.in0]) +
                        static_cast<unsigned>(values_[g.in1])];
    } else if (g.arity <= 2) {
      values_[g.node] = eval_lev_gate<Val3Ops>(
          g.op, g.arity,
          [&](std::size_t i) { return values_[i == 0 ? g.in0 : g.in1]; });
    } else {
      const NodeIndex* in = fanins + g.in0;
      values_[g.node] = eval_lev_gate<Val3Ops>(
          g.op, g.arity, [&](std::size_t i) { return values_[in[i]]; });
    }
  }

  // Latch next state.
  for (std::size_t i = 0; i < lc.dff_d().size(); ++i) {
    state_[i] = values_[lc.dff_d()[i]];
  }

  return outputs();
}

std::vector<Val3> GoodSim3::outputs() const {
  std::vector<Val3> out;
  out.reserve(circuit_->outputs().size());
  for (NodeIndex n : circuit_->outputs()) out.push_back(values_[n]);
  return out;
}

}  // namespace motsim

