#ifndef MOTSIM_SIM3_LEVELIZED_H
#define MOTSIM_SIM3_LEVELIZED_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "logic/packed_val3.h"
#include "logic/val3.h"

namespace motsim {

/// One combinational gate of a LevelizedCircuit. 16 bytes, laid out so
/// the common case (arity <= 2, the vast majority of gates) needs no
/// second indirection: both fanin nets ride inline in the record and
/// one cache-line load decodes the whole gate. Wider gates fall back
/// to a run in the flat fanin array.
struct LevGate {
  GateType op;
  /// AND-form descriptor. Every arity <= 2 gate except XOR/XNOR is a
  /// two-input Kleene AND under input/output polarities (De Morgan:
  /// OR(a,b) = ~(~a & ~b); NOT(a) = ~(a & a) with in1 = in0), so the
  /// packed kernel can evaluate the common case as straight-line mask
  /// arithmetic instead of an opcode dispatch. Bit 0/1: complement
  /// fanin 0/1; bit 2: complement the result; bit 3: descriptor valid
  /// (clear means fall back to the opcode switch).
  std::uint8_t and_form = 0;
  std::uint16_t arity;
  NodeIndex node;  ///< output net (index into a values array)
  /// Fanin 0 when arity <= 2; index of the gate's fanin run in
  /// LevelizedCircuit::fanins() when arity > 2.
  std::uint32_t in0 = 0;
  /// Fanin 1 when arity == 2; a copy of fanin 0 when arity == 1 (the
  /// AND-form path always reads two operands); unused otherwise.
  std::uint32_t in1 = 0;
};

inline constexpr std::uint8_t kAndFormInvIn0 = 1;
inline constexpr std::uint8_t kAndFormInvIn1 = 2;
inline constexpr std::uint8_t kAndFormInvOut = 4;
inline constexpr std::uint8_t kAndFormValid = 8;

/// Flat, levelized compilation of a Netlist's combinational network.
///
/// The netlist's topological order is compiled once into a dense array
/// of LevGate records plus one flat fanin index array, with the frame
/// inputs (primary inputs, constants, flip-flop outputs) stripped out.
/// A frame evaluation is then a single linear sweep — no per-gate
/// vector indirection, no event queue, no frame-input branch — which
/// is what makes the word-parallel kernels of the bit-parallel engine
/// (and the scalar good machine) cache-friendly.
///
/// The compiled order is level-compatible: all gates of level L
/// precede every gate of level L+1 (level_offsets() exposes the
/// boundaries).
class LevelizedCircuit {
 public:
  explicit LevelizedCircuit(const Netlist& netlist);

  [[nodiscard]] const Netlist& netlist() const noexcept { return *netlist_; }

  [[nodiscard]] const std::vector<LevGate>& gates() const noexcept {
    return gates_;
  }
  [[nodiscard]] const std::vector<NodeIndex>& fanins() const noexcept {
    return fanins_;
  }
  /// Fanin `i` (< g.arity) of gate `g`, in the netlist's pin order.
  [[nodiscard]] NodeIndex fanin(const LevGate& g, std::size_t i) const {
    if (g.arity > 2) return fanins_[g.in0 + i];
    return i == 0 ? g.in0 : g.in1;
  }

  /// Combinational depth: the deepest gate level (frame inputs are
  /// level 0 and are not compiled).
  [[nodiscard]] std::size_t level_count() const noexcept {
    return level_offsets_.size() >= 2 ? level_offsets_.size() - 2 : 0;
  }
  /// gates()[level_offsets()[l] .. level_offsets()[l+1]) holds the
  /// gates of level l; the level-0 segment is always empty.
  [[nodiscard]] const std::vector<std::uint32_t>& level_offsets()
      const noexcept {
    return level_offsets_;
  }

  // ---- frame-input / frame-output structure (copies, flat) -----------
  [[nodiscard]] const std::vector<NodeIndex>& inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] const std::vector<NodeIndex>& dffs() const noexcept {
    return dffs_;
  }
  /// D-pin driver of each flip-flop, aligned with dffs().
  [[nodiscard]] const std::vector<NodeIndex>& dff_d() const noexcept {
    return dff_d_;
  }
  [[nodiscard]] const std::vector<NodeIndex>& outputs() const noexcept {
    return outputs_;
  }
  /// Constant nodes and their values.
  [[nodiscard]] const std::vector<std::pair<NodeIndex, Val3>>& consts()
      const noexcept {
    return consts_;
  }

  // ---- sparse-evaluation adjacency -----------------------------------

  /// gate_of()[n] is the index into gates() of the gate driving node n,
  /// or kNoGate for frame inputs (which are never compiled).
  static constexpr std::uint32_t kNoGate = 0xFFFFFFFFu;
  [[nodiscard]] const std::vector<std::uint32_t>& gate_of() const noexcept {
    return gate_of_;
  }

  /// Consumer gates of node n (indices into gates()), as a flat CSR
  /// range in Netlist::fanouts() order (consumer node, then pin); a
  /// gate reading n on two pins is listed twice. Flip-flop D-pins are
  /// not listed — latching is a separate phase, not a schedulable
  /// gate. This is what lets the bit-parallel engine propagate only
  /// through the fault-effect cone instead of sweeping every gate, and
  /// the symbolic propagator schedule events in the netlist's order.
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*>
  fanout_gates(NodeIndex n) const noexcept {
    return {fanout_gates_.data() + fanout_offsets_[n],
            fanout_gates_.data() + fanout_offsets_[n + 1]};
  }

 private:
  const Netlist* netlist_;
  std::vector<LevGate> gates_;
  std::vector<NodeIndex> fanins_;
  std::vector<std::uint32_t> level_offsets_;
  std::vector<NodeIndex> inputs_;
  std::vector<NodeIndex> dffs_;
  std::vector<NodeIndex> dff_d_;
  std::vector<NodeIndex> outputs_;
  std::vector<std::pair<NodeIndex, Val3>> consts_;
  std::vector<std::uint32_t> gate_of_;
  std::vector<std::uint32_t> fanout_offsets_;
  std::vector<std::uint32_t> fanout_gates_;
};

/// Evaluates one compiled gate over any plane type. `get(i)` returns
/// operand i; the Ops type maps the Kleene algebra onto the plane
/// (Val3Ops for scalars, PackedOps for 64-slot words).
template <typename Ops, typename Getter>
[[nodiscard]] auto eval_lev_gate(GateType op, std::size_t arity, Getter get)
    -> decltype(get(std::size_t{0})) {
  switch (op) {
    case GateType::Buf:
      return get(0);
    case GateType::Not:
      return Ops::not_(get(0));
    case GateType::And:
    case GateType::Nand: {
      auto acc = Ops::one();
      for (std::size_t i = 0; i < arity; ++i) acc = Ops::and_(acc, get(i));
      return op == GateType::Nand ? Ops::not_(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      auto acc = Ops::zero();
      for (std::size_t i = 0; i < arity; ++i) acc = Ops::or_(acc, get(i));
      return op == GateType::Nor ? Ops::not_(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      auto acc = Ops::zero();
      for (std::size_t i = 0; i < arity; ++i) acc = Ops::xor_(acc, get(i));
      return op == GateType::Xnor ? Ops::not_(acc) : acc;
    }
    default:
      // Frame inputs are never compiled into gates().
      return Ops::x();
  }
}

struct Val3Ops {
  static Val3 and_(Val3 a, Val3 b) { return and3(a, b); }
  static Val3 or_(Val3 a, Val3 b) { return or3(a, b); }
  static Val3 xor_(Val3 a, Val3 b) { return xor3(a, b); }
  static Val3 not_(Val3 a) { return not3(a); }
  static Val3 zero() { return Val3::Zero; }
  static Val3 one() { return Val3::One; }
  static Val3 x() { return Val3::X; }
};

struct PackedOps {
  static PackedVal3 and_(PackedVal3 a, PackedVal3 b) { return pand(a, b); }
  static PackedVal3 or_(PackedVal3 a, PackedVal3 b) { return por(a, b); }
  static PackedVal3 xor_(PackedVal3 a, PackedVal3 b) { return pxor(a, b); }
  static PackedVal3 not_(PackedVal3 a) { return pnot(a); }
  static PackedVal3 zero() { return broadcast(Val3::Zero); }
  static PackedVal3 one() { return broadcast(Val3::One); }
  static PackedVal3 x() { return PackedVal3{}; }
};

}  // namespace motsim

#endif  // MOTSIM_SIM3_LEVELIZED_H
