#include "core/sym_true_value.h"

#include <algorithm>
#include <stdexcept>

namespace motsim {

std::vector<bdd::VarIndex> StateVars::x_to_y_mapping() const {
  std::vector<bdd::VarIndex> mapping(var_count());
  for (std::size_t i = 0; i < m_; ++i) {
    mapping[x(i)] = y(i);
    mapping[y(i)] = y(i);  // y variables stay put
  }
  return mapping;
}

std::vector<bdd::VarIndex> StateVars::x_vars() const {
  std::vector<bdd::VarIndex> out(m_);
  for (std::size_t i = 0; i < m_; ++i) out[i] = x(i);
  return out;
}

std::vector<bdd::VarIndex> StateVars::y_vars() const {
  std::vector<bdd::VarIndex> out(m_);
  for (std::size_t i = 0; i < m_; ++i) out[i] = y(i);
  return out;
}

SymTrueValueSim::SymTrueValueSim(const Netlist& netlist, bdd::BddManager& mgr,
                                 const StateVars& vars)
    : SymTrueValueSim(std::make_shared<const LevelizedCircuit>(netlist), mgr,
                      vars) {}

SymTrueValueSim::SymTrueValueSim(
    std::shared_ptr<const LevelizedCircuit> circuit, bdd::BddManager& mgr,
    const StateVars& vars)
    : circuit_(std::move(circuit)),
      netlist_(&circuit_->netlist()),
      mgr_(&mgr),
      vars_(vars) {
  const Netlist& netlist = *netlist_;
  if (vars.dff_count() != netlist.dff_count()) {
    throw std::invalid_argument("StateVars plan does not match the netlist");
  }
  const std::vector<std::uint32_t>& gate_of = circuit_->gate_of();
  std::size_t max_arity = 0;
  for (const NodeIndex n : netlist.topo_order()) {
    if (gate_of[n] == LevelizedCircuit::kNoGate) continue;
    sweep_.push_back(gate_of[n]);
    max_arity = std::max<std::size_t>(max_arity,
                                      circuit_->gates()[gate_of[n]].arity);
  }
  operands_.resize(max_arity);
  mgr.ensure_vars(vars.var_count());
  values_.assign(netlist.node_count(), mgr.zero());
  reset_symbolic();
}

void SymTrueValueSim::reset_symbolic() {
  state_.clear();
  state_.reserve(netlist_->dff_count());
  for (std::size_t i = 0; i < netlist_->dff_count(); ++i) {
    state_.push_back(mgr_->var(vars_.x(i)));
  }
}

void SymTrueValueSim::set_state(std::vector<bdd::Bdd> state) {
  if (state.size() != netlist_->dff_count()) {
    throw std::invalid_argument("set_state: wrong state width");
  }
  state_ = std::move(state);
}

std::vector<Val3> SymTrueValueSim::state_as_val3() const {
  std::vector<Val3> out;
  out.reserve(state_.size());
  for (const bdd::Bdd& b : state_) {
    if (b.is_zero()) {
      out.push_back(Val3::Zero);
    } else if (b.is_one()) {
      out.push_back(Val3::One);
    } else {
      out.push_back(Val3::X);
    }
  }
  return out;
}

void SymTrueValueSim::set_tied_constants(std::vector<ConstVal> tied) {
  if (!tied.empty() && tied.size() != netlist_->node_count()) {
    throw std::invalid_argument("set_tied_constants: wrong vector width");
  }
  for (std::size_t n = 0; n < tied.size(); ++n) {
    if (tied[n] != ConstVal::Unknown &&
        is_frame_input(netlist_->type(static_cast<NodeIndex>(n)))) {
      throw std::invalid_argument(
          "set_tied_constants: frame inputs cannot be tied");
    }
  }
  tied_ = std::move(tied);
}

void SymTrueValueSim::release() {
  for (bdd::Bdd& b : values_) b = bdd::Bdd();
  for (bdd::Bdd& b : state_) b = bdd::Bdd();
}

std::vector<bdd::Bdd> SymTrueValueSim::step(const std::vector<Val3>& inputs) {
  const LevelizedCircuit& lc = *circuit_;
  if (inputs.size() != lc.inputs().size()) {
    throw std::invalid_argument("step: wrong input vector width");
  }

  // Frame inputs: binary test-vector values, constants and the
  // symbolic state.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!is_binary(inputs[i])) {
      throw std::invalid_argument(
          "symbolic simulation requires fully specified input vectors");
    }
    values_[lc.inputs()[i]] = mgr_->constant(inputs[i] == Val3::One);
  }
  for (const auto& [n, v] : lc.consts()) {
    values_[n] = mgr_->constant(v == Val3::One);
  }
  for (std::size_t i = 0; i < lc.dffs().size(); ++i) {
    values_[lc.dffs()[i]] = state_[i];
  }

  const std::vector<LevGate>& gates = lc.gates();
  for (const std::uint32_t gi : sweep_) {
    const LevGate& g = gates[gi];
    const NodeIndex n = g.node;
    if (!tied_.empty() && tied_[n] != ConstVal::Unknown) {
      values_[n] = mgr_->constant(tied_[n] == ConstVal::One);
      continue;
    }
    for (std::size_t i = 0; i < g.arity; ++i) {
      operands_[i] = values_[lc.fanin(g, i)].id();
    }
    values_[n] = eval_gate_sym(
        *mgr_, g.op, std::span<const bdd::NodeId>(operands_.data(), g.arity));
  }

  for (std::size_t i = 0; i < lc.dffs().size(); ++i) {
    state_[i] = values_[lc.dff_d()[i]];
  }

  return outputs();
}

std::vector<bdd::Bdd> SymTrueValueSim::outputs() const {
  std::vector<bdd::Bdd> out;
  out.reserve(netlist_->outputs().size());
  for (NodeIndex n : netlist_->outputs()) out.push_back(values_[n]);
  return out;
}

}  // namespace motsim
