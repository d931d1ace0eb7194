#include "sim3/bitpar_sim3.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

#include "obs/telemetry.h"

namespace motsim {

namespace {

/// Frames of fault-free trajectory snapshotted per campaign chunk:
/// bounds the fault-free value storage (one byte per node per frame)
/// while amortizing per-group scratch setup over many frames.
inline constexpr std::size_t kChunkFrames = 32;

/// Branchless broadcast for the hot kernel: the generic broadcast() is
/// a switch, this compiles to two compares. The fault-free side
/// channel is kept as one scalar byte per node (not a materialized
/// 16-byte plane), so the per-frame good row fits L1 and every fanin
/// load re-synthesizes the plane from registers.
[[nodiscard]] inline PackedVal3 bcast(Val3 v) {
  return {~std::uint64_t{0} + (v != Val3::One),
          ~std::uint64_t{0} + (v != Val3::Zero)};
}

/// All-ones when `bit` is nonzero, else zero.
[[nodiscard]] inline std::uint64_t ones_if(unsigned bit) {
  return -static_cast<std::uint64_t>(bit != 0);
}

// Plane policies of the sparse kernel: the plane type, the gate
// algebra eval_lev_gate dispatches to, and the primitives the sweep is
// written in — broadcast of a fault-free scalar, masked select, the
// AND-form gate, fault forcing, and conversion to and from the
// two-rail PackedVal3 the scratch and the latch store.

/// Exact Kleene logic on two-rail planes (any slot may be X).
struct ThreeRail : PackedOps {
  using Plane = PackedVal3;
  static Plane bcast(Val3 v) { return motsim::bcast(v); }
  static Plane select(Plane a, Plane b, std::uint64_t m) {
    return {(a.ones & m) | (b.ones & ~m), (a.zeros & m) | (b.zeros & ~m)};
  }
  /// Two-input Kleene AND under polarity masks. A Kleene complement of
  /// a packed plane is a rail swap, done branchlessly as a masked
  /// xor-swap.
  static Plane and_form(Plane a, Plane b, std::uint8_t af) {
    const auto cnot = [](Plane x, std::uint64_t m) {
      const std::uint64_t t = (x.ones ^ x.zeros) & m;
      return Plane{x.ones ^ t, x.zeros ^ t};
    };
    a = cnot(a, ones_if(af & kAndFormInvIn0));
    b = cnot(b, ones_if(af & kAndFormInvIn1));
    return cnot(Plane{a.ones & b.ones, a.zeros | b.zeros},
                ones_if(af & kAndFormInvOut));
  }
  static Plane force(Plane v, PackedVal3 f) { return apply_force(v, f); }
  static Plane from_packed(PackedVal3 p) { return p; }
  static PackedVal3 to_packed(Plane v) { return v; }
};

/// Boolean logic on one word per node: bit i is slot i's value. Exact
/// only while no slot can hold an X (the two-valued path's entry
/// rule); a binary PackedVal3 converts losslessly as its `ones` rail.
struct OneRail {
  using Plane = std::uint64_t;
  static Plane and_(Plane a, Plane b) { return a & b; }
  static Plane or_(Plane a, Plane b) { return a | b; }
  static Plane xor_(Plane a, Plane b) { return a ^ b; }
  static Plane not_(Plane a) { return ~a; }
  static Plane zero() { return 0; }
  static Plane one() { return ~Plane{0}; }
  static Plane x() { return 0; }  // unreachable: frame inputs
  static Plane bcast(Val3 v) { return ones_if(v == Val3::One); }
  static Plane select(Plane a, Plane b, std::uint64_t m) {
    return (a & m) | (b & ~m);
  }
  static Plane and_form(Plane a, Plane b, std::uint8_t af) {
    return ((a ^ ones_if(af & kAndFormInvIn0)) &
            (b ^ ones_if(af & kAndFormInvIn1))) ^
           ones_if(af & kAndFormInvOut);
  }
  static Plane force(Plane v, PackedVal3 f) {
    return (v & ~(f.ones | f.zeros)) | f.ones;
  }
  static Plane from_packed(PackedVal3 p) { return p.ones; }
  static PackedVal3 to_packed(Plane v) { return {v, ~v}; }
};

[[nodiscard]] bool all_binary(const std::vector<Val3>& values) {
  return std::all_of(values.begin(), values.end(), is_binary);
}

}  // namespace

BitParFaultSim3::Scratch::Scratch(const LevelizedCircuit& lc)
    : nodes(lc.netlist().node_count()),
      sched((lc.gates().size() + 63) / 64, 0) {}

BitParFaultSim3::BitParFaultSim3(const Netlist& netlist,
                                 std::vector<Fault> faults,
                                 std::size_t threads)
    : BitParFaultSim3(std::make_shared<const LevelizedCircuit>(netlist),
                      std::move(faults), threads) {}

BitParFaultSim3::BitParFaultSim3(
    std::shared_ptr<const LevelizedCircuit> circuit, std::vector<Fault> faults,
    std::size_t threads)
    : FaultSimulator3(std::move(faults)),
      lc_(std::move(circuit)),
      threads_(threads == 0 ? ThreadPool::default_thread_count() : threads),
      good_(lc_) {}

BitParFaultSim3::Group BitParFaultSim3::build_group(
    const std::size_t* fault_indices, std::size_t count) const {
  const Netlist& nl = lc_->netlist();
  const std::vector<std::uint32_t>& gate_of = lc_->gate_of();
  Group grp;
  grp.members.assign(fault_indices, fault_indices + count);
  grp.full_mask = count == kPackedSlots
                      ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << count) - 1);
  grp.alive = grp.full_mask;
  grp.stem_at.assign(nl.node_count(), 0);
  grp.branch_at.assign(nl.node_count(), 0);
  const std::size_t words = (lc_->gates().size() + 63) / 64;
  grp.stem_gate_bits.assign(words, 0);
  grp.branch_gate_bits.assign(words, 0);
  // At most one branch_pins entry per fault; most forced gates have
  // arity <= 2, so two pin entries per fault rarely regrow pin_forces.
  grp.branch_pins.reserve(count);
  grp.pin_forces.reserve(2 * count);

  for (unsigned slot = 0; slot < count; ++slot) {
    const Fault& f = faults_[fault_indices[slot]];
    const NodeIndex node = f.site.node;
    const std::uint64_t bit = std::uint64_t{1} << slot;
    const PackedVal3 force =
        f.stuck_value ? PackedVal3{bit, 0} : PackedVal3{0, bit};
    // Faults of one lead sit in distinct slots, so their masks are
    // disjoint and merge by OR.
    const auto merge = [&force](PackedVal3& into) {
      into.ones |= force.ones;
      into.zeros |= force.zeros;
    };
    if (f.site.is_stem()) {
      std::uint8_t& at = grp.stem_at[node];
      if (at == 0) {
        grp.stem_forces.emplace_back(node, PackedVal3{});
        at = static_cast<std::uint8_t>(grp.stem_forces.size());
      }
      merge(grp.stem_forces[at - 1].second);
    } else if (nl.type(node) == GateType::Dff) {
      grp.latch_forces.emplace_back(nl.dff_position(node), force);
    } else {
      const std::uint32_t gi = gate_of[node];
      const LevGate& g = lc_->gates()[gi];
      std::uint8_t& at = grp.branch_at[node];
      if (at == 0) {
        grp.branch_pins.push_back(
            static_cast<std::uint32_t>(grp.pin_forces.size()));
        grp.pin_forces.resize(grp.pin_forces.size() +
                              std::max<std::size_t>(g.arity, 2));
        grp.branch_gate_bits[gi >> 6] |= std::uint64_t{1} << (gi & 63);
        grp.seed_gates.push_back(gi);
        at = static_cast<std::uint8_t>(grp.branch_pins.size());
      }
      PackedVal3* pins = grp.pin_forces.data() + grp.branch_pins[at - 1];
      merge(pins[f.site.pin]);
      if (g.arity == 1) merge(pins[1]);
    }
  }

  // Compile the per-frame seed sets for the sparse kernel: stem forces
  // on frame inputs apply at load time; every injected compiled gate
  // is scheduled unconditionally each frame.
  for (const auto& [node, force] : grp.stem_forces) {
    if (gate_of[node] != LevelizedCircuit::kNoGate) {
      const std::uint32_t gi = gate_of[node];
      grp.stem_gate_bits[gi >> 6] |= std::uint64_t{1} << (gi & 63);
      if (grp.branch_at[node] != 0) {
        grp.seed_gates.push_back(gi);
      } else {
        grp.stem_gate_seeds.emplace_back(node, force);
      }
    } else if (nl.type(node) == GateType::Dff) {
      grp.stem_dff_forces.emplace_back(nl.dff_position(node), force);
    } else {
      grp.input_stem_forces.emplace_back(node, force);
    }
  }
  std::sort(grp.seed_gates.begin(), grp.seed_gates.end());
  grp.seed_gates.erase(
      std::unique(grp.seed_gates.begin(), grp.seed_gates.end()),
      grp.seed_gates.end());
  return grp;
}

template <typename P>
std::uint64_t BitParFaultSim3::eval_frame_sparse(const Group& grp,
                                                 const Val3* good,
                                                 std::uint64_t mask,
                                                 Scratch& s) const {
  using Plane = typename P::Plane;
  const LevelizedCircuit& lc = *lc_;
  if (++s.epoch == 0) {  // stamp wrap-around: invalidate everything
    for (NodeSlot& sl : s.nodes) sl.stamp = 0;
    s.epoch = 1;
  }
  const std::uint32_t epoch = s.epoch;
  NodeSlot* nodes = s.nodes.data();
  std::uint64_t* sched = s.sched.data();

  // Branchless fallback: frontier gates mix divergent and fault-free
  // operands, so a conditional here mispredicts; a masked select of
  // the two planes is cheaper than the stalls.
  const auto load = [&](NodeIndex n) {
    const NodeSlot& sl = nodes[n];
    return P::select(P::from_packed(sl.val), P::bcast(good[n]),
                     ones_if(sl.stamp == epoch));
  };
  // Pins the slots outside `mask` to the fault-free plane, then stores
  // the result only when it still diverges — equal planes stay
  // implicit, so nothing downstream wakes up. Scheduling a consumer is
  // one idempotent bit-set; the sweep below consumes the bits in level
  // order.
  const auto publish = [&](NodeIndex n, Plane v) {
    const Plane pg = P::bcast(good[n]);
    v = P::select(v, pg, mask);
    if (v == pg) return;
    NodeSlot& sl = nodes[n];
    sl.val = P::to_packed(v);
    sl.stamp = epoch;
    const auto [fo, fe] = lc.fanout_gates(n);
    for (const std::uint32_t* it = fo; it != fe; ++it) {
      sched[*it >> 6] |= std::uint64_t{1} << (*it & 63);
    }
  };
  const auto stem_force = [&](NodeIndex n) {
    return grp.stem_forces[grp.stem_at[n] - 1].second;
  };
  const auto forced_seed = [&](NodeIndex n, PackedVal3 force) {
    publish(n, P::force(P::bcast(good[n]), force));
  };

  // Seed: dirty flip-flop planes (clean ones equal the fault-free
  // machine and are skipped), output-stem forces on clean flip-flops,
  // stem-forced primary inputs / constants, and the injected gates
  // themselves.
  for (std::size_t i = 0; i < lc.dffs().size(); ++i) {
    if (!grp.state_dirty[i]) continue;
    const NodeIndex n = lc.dffs()[i];
    Plane v = P::from_packed(grp.state[i]);
    if (grp.stem_at[n] != 0) v = P::force(v, stem_force(n));
    publish(n, v);
  }
  for (const auto& [pos, force] : grp.stem_dff_forces) {
    if (grp.state_dirty[pos]) continue;  // force folded in above
    forced_seed(lc.dffs()[pos], force);
  }
  for (const auto& [n, force] : grp.input_stem_forces) forced_seed(n, force);
  for (const auto& [n, force] : grp.stem_gate_seeds) forced_seed(n, force);
  for (const std::uint32_t gi : grp.seed_gates) {
    sched[gi >> 6] |= std::uint64_t{1} << (gi & 63);
  }

  // One gate over its (possibly forced) operands; `pin(i, x)` applies
  // input pin i's branch force to operand x. Every arity <= 2 gate but
  // XOR/XNOR takes the straight-line AND form, with no opcode dispatch.
  const NodeIndex* fanins = lc.fanins().data();
  const auto eval = [&](const LevGate& g, auto pin) -> Plane {
    if (g.and_form & kAndFormValid) {
      return P::and_form(pin(0, load(g.in0)), pin(1, load(g.in1)),
                         g.and_form);
    }
    if (g.arity <= 2) {
      return eval_lev_gate<P>(g.op, g.arity, [&](std::size_t i) {
        return pin(i, load(i == 0 ? g.in0 : g.in1));
      });
    }
    const NodeIndex* in = fanins + g.in0;
    return eval_lev_gate<P>(g.op, g.arity, [&](std::size_t i) {
      return pin(i, load(in[i]));
    });
  };

  // Union-cone sweep over the pending bitset. The compiled order is
  // level-sorted and a gate only schedules gates of a strictly higher
  // level, hence a strictly greater index — so one ascending pass over
  // the words is enough, re-reading a word until it stays clean to
  // catch same-word wake-ups. Consuming every bit leaves the bitset
  // all-zero between frames.
  std::uint64_t words = 0;
  const LevGate* gates = lc.gates().data();
  const std::size_t wcount = s.sched.size();
  for (std::size_t wi = 0; wi < wcount; ++wi) {
    std::uint64_t bits = sched[wi];
    if (bits != 0) {
      sched[wi] = 0;
      std::uint64_t pending = 0;
      const std::uint64_t stemw = grp.stem_gate_bits[wi];
      const std::uint64_t brw = grp.branch_gate_bits[wi];
      do {
        const unsigned k = static_cast<unsigned>(std::countr_zero(bits));
        const std::uint32_t gi = static_cast<std::uint32_t>((wi << 6) + k);
        bits &= bits - 1;
        const LevGate& g = gates[gi];
        Plane v;
        if ((brw >> k) & 1) [[unlikely]] {
          const PackedVal3* pins =
              grp.pin_forces.data() +
              grp.branch_pins[grp.branch_at[g.node] - 1];
          v = eval(g, [pins](std::size_t i, Plane x) {
            return P::force(x, pins[i]);
          });
        } else {
          v = eval(g, [](std::size_t, Plane x) { return x; });
        }
        if ((stemw >> k) & 1) [[unlikely]] {
          v = P::force(v, stem_force(g.node));
        }
        {
          // Branchless publish: the diverge-or-not pattern at the cone
          // frontier is data-dependent and mispredicts badly, so run
          // the store and the consumer bit-sets unconditionally and
          // neutralize them with a mask instead of branching. A stale
          // val under an old stamp is invisible, and OR-ing zero into
          // the schedule is a no-op.
          const NodeIndex n = g.node;
          const Plane pg = P::bcast(good[n]);
          v = P::select(v, pg, mask);
          const bool diverges = !(v == pg);
          const std::uint64_t dm = ones_if(diverges);
          NodeSlot& sl = nodes[n];
          sl.val = P::to_packed(v);
          sl.stamp = diverges ? epoch : sl.stamp;
          // Same-word consumers go to the `pending` register, not to
          // memory: re-reading sched[wi] here would chain every
          // iteration's branch on its own stores draining. Cross-word
          // consumers take the ordinary bit-set.
          const auto [fo, fe] = lc.fanout_gates(n);
          for (const std::uint32_t* it = fo; it != fe; ++it) {
            const std::uint32_t c = *it;
            const std::uint64_t b = (std::uint64_t{1} << (c & 63)) & dm;
            const std::uint64_t same = ones_if((c >> 6) == wi);
            sched[c >> 6] |= b & ~same;
            pending |= b & same;
          }
        }
        ++words;
        // Absorb same-word wake-ups: publish only schedules strictly
        // greater indices, so any pending bit is above `gi` and not
        // yet evaluated — merging keeps the pass ascending and every
        // gate evaluated exactly once per frame.
        bits |= pending;
        pending = 0;
      } while (bits != 0);
    }
  }
  return words;
}

void BitParFaultSim3::eval_frame(const Group& grp, const Val3* good,
                                 bool frame_binary, std::uint64_t mask,
                                 Scratch& s, ChunkStats& stats) const {
  // No X source remains when the fault-free values are binary and so
  // is every simulated slot's state: forces are binary and binary
  // operands give binary results, so Kleene logic reduces to Boolean
  // logic slot by slot.
  if (frame_binary && (mask & ~grp.binary) == 0) {
    stats.words += eval_frame_sparse<OneRail>(grp, good, mask, s);
    ++stats.binary_frames;
  } else {
    stats.words += eval_frame_sparse<ThreeRail>(grp, good, mask, s);
  }
  ++stats.frames;
}

std::uint64_t BitParFaultSim3::latch_group(Group& grp, const Val3* good,
                                           const Scratch& s) const {
  const LevelizedCircuit& lc = *lc_;
  const NodeIndex* dff_d = lc.dff_d().data();
  // X slots over the divergent planes: x1 = an X on at least one
  // flip-flop, x2 = on at least two. A slot carries one fault, hence at
  // most one latch force, so x2 tells below whether a forced slot keeps
  // an X elsewhere once its own flip-flop turns binary.
  std::uint64_t x1 = 0;
  std::uint64_t x2 = 0;
  for (std::size_t i = 0; i < lc.dff_d().size(); ++i) {
    const NodeIndex d = dff_d[i];
    if (s.nodes[d].stamp == s.epoch) {
      const PackedVal3 v = s.nodes[d].val;
      grp.state[i] = v;
      grp.state_dirty[i] = 1;
      const std::uint64_t x = ~(v.ones | v.zeros);
      x2 |= x1 & x;
      x1 |= x;
    } else {
      // The D plane equals the fault-free one, so the latched state
      // does too: mark clean instead of storing it.
      grp.state_dirty[i] = 0;
    }
  }
  std::uint64_t xbits = x1;
  for (const auto& [pos, force] : grp.latch_forces) {
    const std::uint64_t forced = force.ones | force.zeros;
    std::uint64_t was_x = 0;
    PackedVal3 base;
    if (grp.state_dirty[pos]) {
      base = grp.state[pos];
      was_x = ~(base.ones | base.zeros) & forced;
    } else {
      base = bcast(good[dff_d[pos]]);
    }
    grp.state[pos] = apply_force(base, force);
    grp.state_dirty[pos] = 1;
    xbits = (xbits & ~forced) | (forced & ((was_x & x2) | (~was_x & x1)));
  }
  return xbits;
}

void BitParFaultSim3::simulate_frame(Group& grp, std::size_t t,
                                     const Val3* good, bool frame_binary,
                                     bool good_state_binary, Scratch& scratch,
                                     FaultSim3Result& result,
                                     ChunkStats& stats) const {
  const LevelizedCircuit& lc = *lc_;
  eval_frame(grp, good, frame_binary, grp.alive, scratch, stats);

  // Detection: a slot is caught when some primary output has a binary
  // fault-free value and the opposite binary slot value. An untouched
  // output plane equals the fault-free one and can never catch
  // anything.
  for (const NodeIndex po : lc.outputs()) {
    if (scratch.nodes[po].stamp != scratch.epoch) continue;
    std::uint64_t caught;
    if (good[po] == Val3::One) {
      caught = scratch.nodes[po].val.zeros & grp.alive;
    } else if (good[po] == Val3::Zero) {
      caught = scratch.nodes[po].val.ones & grp.alive;
    } else {
      continue;  // fault-free X: no observation
    }
    grp.alive &= ~caught;
    while (caught != 0) {
      const unsigned slot = static_cast<unsigned>(std::countr_zero(caught));
      caught &= caught - 1;
      const std::size_t fi = grp.members[slot];
      result.status[fi] = FaultStatus::DetectedSim3;
      result.detect_frame[fi] = static_cast<std::uint32_t>(t + 1);
    }
    if (grp.alive == 0) return;
  }

  const std::uint64_t xbits = latch_group(grp, good, scratch);
  const std::uint64_t binary = good_state_binary ? grp.alive & ~xbits : 0;
  for (std::uint64_t fresh = binary & ~grp.binary; fresh != 0;
       fresh &= fresh - 1) {
    grp.binary_since[std::countr_zero(fresh)] =
        static_cast<std::uint32_t>(t + 1);
  }
  grp.binary = binary;
}

BitParFaultSim3::ChunkStats BitParFaultSim3::simulate_chunk(
    Group& grp, std::size_t base,
    const std::vector<std::vector<Val3>>& good_frames,
    const std::vector<std::uint8_t>& frame_binary,
    const std::vector<std::uint8_t>& good_binary, Scratch& scratch,
    FaultSim3Result& result) const {
  ChunkStats stats;
  for (std::size_t f = 0; f < good_frames.size() && grp.alive != 0; ++f) {
    simulate_frame(grp, base + f, good_frames[f].data(), frame_binary[f] != 0,
                   good_binary[f] != 0, scratch, result, stats);
  }
  return stats;
}

void BitParFaultSim3::record(const ChunkStats& stats) const {
  if (telemetry_ == nullptr) return;
  obs::MetricsRegistry& m = telemetry_->metrics;
  m.counter("sim3.words_evaluated").add(stats.words);
  m.counter("sim3.batches").add(stats.frames);
  m.counter("sim3.binary_group_frames").add(stats.binary_frames);
  m.counter("sim3.levels").add(lc_->level_count() * stats.frames);
}

FaultSim3Result BitParFaultSim3::run(
    const std::vector<std::vector<Val3>>& sequence) {
  const LevelizedCircuit& lc = *lc_;

  FaultSim3Result result;
  result.status = initial_status_;
  result.detect_frame.assign(faults_.size(), 0);
  result.exact_from.assign(faults_.size(), 0);

  // Group the live faults by cone locality: the netlist's topological
  // order is depth-first flavored, so it emits whole fanin cones
  // consecutively — packing faults whose sites are adjacent in that
  // order makes the 64 fault-effect cones of a group overlap, which
  // shrinks the union cone the sparse sweep has to evaluate. The key
  // depends only on circuit structure and the fault list, so the
  // partition stays reproducible for every thread count, and per-fault
  // results are independent of grouping entirely.
  std::vector<std::size_t> live;
  live.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) live.push_back(i);
  }
  result.simulated_faults = live.size();
  {
    const auto& topo = lc.netlist().topo_order();
    std::vector<std::uint32_t> topo_pos(lc.netlist().node_count(), 0);
    for (std::uint32_t p = 0; p < topo.size(); ++p) topo_pos[topo[p]] = p;
    std::stable_sort(live.begin(), live.end(),
                     [&](std::size_t a, std::size_t b) {
                       return topo_pos[faults_[a].site.node] <
                              topo_pos[faults_[b].site.node];
                     });
  }

  std::vector<Group> groups;
  for (std::size_t at = 0; at < live.size(); at += kPackedSlots) {
    const std::size_t count = std::min<std::size_t>(kPackedSlots,
                                                    live.size() - at);
    groups.push_back(build_group(live.data() + at, count));
    groups.back().state.assign(lc.dffs().size(), PackedVal3{});  // all-X
    groups.back().state_dirty.assign(lc.dffs().size(), 1);
  }

  // Per-fault X-free streak starts (Group::binary_since), parked here
  // while compaction repacks the groups and when the run ends.
  std::vector<std::uint32_t> binary_since(faults_.size(), 0);
  auto save_streaks = [&binary_since](const Group& grp) {
    for (std::size_t s = 0; s < grp.members.size(); ++s) {
      binary_since[grp.members[s]] =
          (grp.binary >> s & 1) != 0 ? grp.binary_since[s] : 0;
    }
  };

  // One shared fault-free trajectory, snapshotted chunk by chunk as
  // scalar node values; the sparse kernel re-broadcasts them on the
  // fly, which keeps the per-frame good row at one byte per node.
  GoodSim3 good(lc_);
  std::vector<std::vector<Val3>> good_frames;
  std::vector<std::uint8_t> frame_binary;  ///< fault-free values X-free
  std::vector<std::uint8_t> good_binary;   ///< next state X-free, per frame
  bool state_binary = all_binary(good.state());

  std::optional<Scratch> serial_scratch;
  const std::size_t dff_count = lc.dffs().size();
  for (std::size_t base = 0; base < sequence.size(); base += kChunkFrames) {
    const std::size_t len =
        std::min<std::size_t>(kChunkFrames, sequence.size() - base);

    // Chunk-boundary compaction: once a whole group's worth of faults
    // has been detected, repack the survivors (same sorted order) into
    // fewer groups, migrating each fault's latch state slot by slot.
    // The boundary is a full barrier in both execution paths, and
    // per-fault results don't depend on grouping, so this changes
    // neither results nor their thread-count reproducibility.
    if (base != 0) {
      std::size_t still = 0;
      for (const std::size_t idx : live) {
        still += result.status[idx] == FaultStatus::Undetected ? 1 : 0;
      }
      if (live.size() - still >= kPackedSlots) {
        const std::vector<Val3>& gstate = good.state();
        std::vector<std::size_t> nlive;
        nlive.reserve(still);
        std::vector<Val3> snap;  // nlive-major, dff-minor
        snap.reserve(still * dff_count);
        for (const Group& grp : groups) {
          save_streaks(grp);
          for (std::size_t s = 0; s < grp.members.size(); ++s) {
            const std::size_t idx = grp.members[s];
            if (result.status[idx] != FaultStatus::Undetected) continue;
            nlive.push_back(idx);
            for (std::size_t i = 0; i < dff_count; ++i) {
              snap.push_back(grp.state_dirty[i]
                                 ? slot_value(grp.state[i],
                                              static_cast<unsigned>(s))
                                 : gstate[i]);
            }
          }
        }
        groups.clear();
        for (std::size_t at = 0; at < nlive.size(); at += kPackedSlots) {
          const std::size_t count =
              std::min<std::size_t>(kPackedSlots, nlive.size() - at);
          Group grp = build_group(nlive.data() + at, count);
          for (std::size_t s = 0; s < count; ++s) {
            grp.binary_since[s] = binary_since[nlive[at + s]];
            grp.binary |= std::uint64_t{grp.binary_since[s] != 0} << s;
          }
          grp.state.resize(dff_count);
          grp.state_dirty.assign(dff_count, 0);
          for (std::size_t i = 0; i < dff_count; ++i) {
            PackedVal3 p = broadcast(gstate[i]);
            bool dirty = false;
            for (std::size_t s = 0; s < count; ++s) {
              const Val3 v = snap[(at + s) * dff_count + i];
              if (v != gstate[i]) {
                set_slot(p, static_cast<unsigned>(s), v);
                dirty = true;
              }
            }
            grp.state[i] = p;
            grp.state_dirty[i] = dirty ? 1 : 0;
          }
          groups.push_back(std::move(grp));
        }
        live = std::move(nlive);
      }
    }
    good_frames.resize(len);
    frame_binary.resize(len);
    good_binary.resize(len);
    const std::size_t input_count = lc.netlist().input_count();
    for (std::size_t f = 0; f < len; ++f) {
      const std::vector<Val3>& vec = sequence[base + f];
      frame_binary[f] =
          state_binary && vec.size() == input_count && all_binary(vec);
      good.step(vec);
      good_frames[f] = good.values();
      state_binary = all_binary(good.state());
      good_binary[f] = state_binary;
    }

    bool any_alive = false;
    if (threads_ > 1 && groups.size() > 1) {
      if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
      for (Group& grp : groups) {
        if (grp.alive == 0) continue;
        any_alive = true;
        // Distinct groups write distinct result entries, so the tasks
        // never alias; telemetry counters are thread-safe.
        pool_->submit([&, base] {
          const obs::SpanTracer::Span span =
              obs::open_span(telemetry_, "sim3.batch");
          Scratch scratch(lc);
          record(simulate_chunk(grp, base, good_frames, frame_binary,
                                good_binary, scratch, result));
        });
      }
      pool_->wait_idle();
    } else {
      // Serial path: frame-outer, group-inner — the fault-free plane
      // row and the scratch stay cache-resident across all groups
      // instead of re-streaming the whole chunk per group. Groups are
      // independent, so the visiting order cannot change results.
      if (!serial_scratch.has_value()) serial_scratch.emplace(lc);
      const obs::SpanTracer::Span span =
          obs::open_span(telemetry_, "sim3.batch");
      ChunkStats stats;
      for (std::size_t f = 0; f < len; ++f) {
        const Val3* gvals = good_frames[f].data();
        for (Group& grp : groups) {
          if (grp.alive == 0) continue;
          any_alive = true;
          simulate_frame(grp, base + f, gvals, frame_binary[f] != 0,
                         good_binary[f] != 0, *serial_scratch, result, stats);
        }
      }
      record(stats);
    }
    if (!any_alive) break;
  }

  // Recount instead of accumulating per group: initial-status entries
  // other than Undetected were never simulated. Survivors turn their
  // X-free streak into exact_from.
  for (const Group& grp : groups) save_streaks(grp);
  const std::uint32_t last_x =
      last_nonbinary_frame(sequence, lc.netlist().input_count());
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] != FaultStatus::Undetected) continue;
    if (result.status[i] == FaultStatus::DetectedSim3) {
      ++result.detected_count;
    } else if (binary_since[i] != 0) {
      result.exact_from[i] = std::max(binary_since[i], last_x);
    }
  }
  return result;
}

void BitParFaultSim3::begin_window(const std::vector<Val3>& good_state,
                                   std::vector<std::size_t> fault_indices,
                                   std::vector<StateDiff3> diffs) {
  if (fault_indices.size() != diffs.size()) {
    throw std::invalid_argument("begin_window: indices/diffs mismatch");
  }
  good_.set_state(good_state);
  window_groups_.clear();
  window_size_ = fault_indices.size();
  window_live_ = window_size_;
  if (!window_scratch_) window_scratch_ = std::make_unique<Scratch>(*lc_);
  const bool good_binary = all_binary(good_state);

  // Window position p lives in group p / 64, slot p % 64.
  for (std::size_t at = 0; at < fault_indices.size(); at += kPackedSlots) {
    const std::size_t count =
        std::min<std::size_t>(kPackedSlots, fault_indices.size() - at);
    Group grp = build_group(fault_indices.data() + at, count);
    grp.state.assign(lc_->dffs().size(), PackedVal3{});
    grp.state_dirty.assign(lc_->dffs().size(), 1);
    for (std::size_t d = 0; d < grp.state.size(); ++d) {
      grp.state[d] = broadcast(good_state[d]);
    }
    for (unsigned slot = 0; slot < count; ++slot) {
      bool binary = good_binary;
      for (const auto& [pos, v] : diffs[at + slot]) {
        set_slot(grp.state[pos], slot, v);
        binary = binary && is_binary(v);
      }
      grp.binary |= std::uint64_t{binary} << slot;
    }
    window_groups_.push_back(std::move(grp));
  }
}

std::vector<std::uint32_t> BitParFaultSim3::step_window(
    const std::vector<Val3>& inputs) {
  const LevelizedCircuit& lc = *lc_;
  const bool frame_binary = all_binary(good_.state()) &&
                            inputs.size() == lc.netlist().input_count() &&
                            all_binary(inputs);
  good_.step(inputs);
  const Val3* gvals = good_.values().data();
  const bool next_binary = all_binary(good_.state());
  Scratch& s = *window_scratch_;

  const obs::SpanTracer::Span span = obs::open_span(telemetry_, "sim3.batch");
  std::vector<std::uint32_t> observed;
  ChunkStats stats;
  for (std::size_t gi = 0; gi < window_groups_.size(); ++gi) {
    Group& grp = window_groups_[gi];
    // Dropping only gates observation (grp.alive = not dropped): every
    // faulty machine keeps simulating exactly, so pass the full mask.
    eval_frame(grp, gvals, frame_binary, grp.full_mask, s, stats);

    std::uint64_t caught = 0;
    for (const NodeIndex po : lc.outputs()) {
      if (s.nodes[po].stamp != s.epoch) continue;
      if (gvals[po] == Val3::One) {
        caught |= s.nodes[po].val.zeros;
      } else if (gvals[po] == Val3::Zero) {
        caught |= s.nodes[po].val.ones;
      }
    }
    caught &= grp.alive;
    while (caught != 0) {
      const unsigned slot = static_cast<unsigned>(std::countr_zero(caught));
      caught &= caught - 1;
      observed.push_back(static_cast<std::uint32_t>(gi * kPackedSlots + slot));
    }

    const std::uint64_t xbits = latch_group(grp, gvals, s);
    grp.binary = next_binary ? grp.full_mask & ~xbits : 0;
  }
  record(stats);
  return observed;
}

void BitParFaultSim3::drop_window_fault(std::uint32_t pos) {
  Group& grp = window_groups_[pos / kPackedSlots];
  const std::uint64_t bit = std::uint64_t{1} << (pos % kPackedSlots);
  if (grp.alive & bit) {
    grp.alive &= ~bit;
    --window_live_;
  }
}

bool BitParFaultSim3::window_fault_alive(std::uint32_t pos) const {
  const Group& grp = window_groups_[pos / kPackedSlots];
  return (grp.alive & (std::uint64_t{1} << (pos % kPackedSlots))) != 0;
}

StateDiff3 BitParFaultSim3::window_diff(std::uint32_t pos) const {
  const Group& grp = window_groups_[pos / kPackedSlots];
  const unsigned slot = pos % kPackedSlots;
  const std::vector<Val3>& good_state = good_.state();
  StateDiff3 diff;
  for (std::uint32_t d = 0; d < grp.state.size(); ++d) {
    if (!grp.state_dirty[d]) continue;  // clean: equals the good state
    const Val3 v = slot_value(grp.state[d], slot);
    if (v != good_state[d]) diff.emplace_back(d, v);
  }
  return diff;
}

void BitParFaultSim3::end_window() {
  window_groups_.clear();
  window_size_ = 0;
  window_live_ = 0;
}

}  // namespace motsim
