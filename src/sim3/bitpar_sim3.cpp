#include "sim3/bitpar_sim3.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>

#include "obs/telemetry.h"

namespace motsim {

namespace {

inline constexpr std::uint8_t kStemFlag = 1;
inline constexpr std::uint8_t kBranchFlag = 2;

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
  Group grp;
  grp.members.assign(fault_indices, fault_indices + count);
  grp.full_mask = count == kPackedSlots
                      ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << count) - 1);
  grp.alive = grp.full_mask;
  grp.flags.assign(nl.node_count(), 0);

  for (unsigned slot = 0; slot < count; ++slot) {
    const Fault& f = faults_[fault_indices[slot]];
    const std::uint64_t bit = std::uint64_t{1} << slot;
    const PackedVal3 force =
        f.stuck_value ? PackedVal3{bit, 0} : PackedVal3{0, bit};
    if (f.site.is_stem()) {
      // Both polarities of one stem can sit in the same group
      // (distinct slots); merge their disjoint masks.
      bool merged = false;
      for (auto& [node, existing] : grp.stem_forces) {
        if (node == f.site.node) {
          existing.ones |= force.ones;
          existing.zeros |= force.zeros;
          merged = true;
          break;
        }
      }
      if (!merged) grp.stem_forces.emplace_back(f.site.node, force);
      grp.flags[f.site.node] |= kStemFlag;
    } else if (nl.type(f.site.node) == GateType::Dff) {
      grp.latch_forces.emplace_back(nl.dff_position(f.site.node), force);
    } else {
      grp.branch_forces.emplace_back(f.site.node,
                                     BranchForce{f.site.pin, force});
      grp.flags[f.site.node] |= kBranchFlag;
    }
  }
  std::sort(grp.stem_forces.begin(), grp.stem_forces.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(grp.branch_forces.begin(), grp.branch_forces.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second.pin < b.second.pin;
            });

  // Compile the per-frame seed sets for the sparse kernel: stem forces
  // on frame inputs apply at load time; every injected compiled gate
  // is scheduled unconditionally each frame.
  const std::vector<std::uint32_t>& gate_of = lc_->gate_of();
  const std::size_t words = (lc_->gates().size() + 63) / 64;
  grp.stem_gate_bits.assign(words, 0);
  grp.branch_gate_bits.assign(words, 0);
  for (const auto& [node, force] : grp.stem_forces) {
    if (gate_of[node] != LevelizedCircuit::kNoGate) {
      const std::uint32_t gi = gate_of[node];
      grp.stem_gate_bits[gi >> 6] |= std::uint64_t{1} << (gi & 63);
      if (grp.flags[node] & kBranchFlag) {
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
  for (const auto& [node, bf] : grp.branch_forces) {
    const std::uint32_t gi = gate_of[node];
    grp.branch_gate_bits[gi >> 6] |= std::uint64_t{1} << (gi & 63);
    grp.seed_gates.push_back(gi);
  }
  std::sort(grp.seed_gates.begin(), grp.seed_gates.end());
  grp.seed_gates.erase(
      std::unique(grp.seed_gates.begin(), grp.seed_gates.end()),
      grp.seed_gates.end());
  return grp;
}

std::uint64_t BitParFaultSim3::eval_frame_sparse(const Group& grp,
                                                 const Val3* good,
                                                 std::uint64_t mask,
                                                 Scratch& s) const {
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
    const std::uint64_t m = -static_cast<std::uint64_t>(sl.stamp == epoch);
    const PackedVal3 gv = bcast(good[n]);
    return PackedVal3{(sl.val.ones & m) | (gv.ones & ~m),
                      (sl.val.zeros & m) | (gv.zeros & ~m)};
  };
  // Pins the slots outside `mask` to the fault-free plane, then stores
  // the result only when it still diverges — equal planes stay
  // implicit, so nothing downstream wakes up. Scheduling a consumer is
  // one idempotent bit-set; the sweep below consumes the bits in level
  // order.
  const auto publish = [&](NodeIndex n, PackedVal3 v) {
    const PackedVal3 pg = bcast(good[n]);
    v.ones = (v.ones & mask) | (pg.ones & ~mask);
    v.zeros = (v.zeros & mask) | (pg.zeros & ~mask);
    if (v == pg) return;
    NodeSlot& sl = nodes[n];
    sl.val = v;
    sl.stamp = epoch;
    const auto [fo, fe] = lc.fanout_gates(n);
    for (const std::uint32_t* it = fo; it != fe; ++it) {
      sched[*it >> 6] |= std::uint64_t{1} << (*it & 63);
    }
  };
  const auto stem_of = [&](NodeIndex n) {
    const auto it = std::lower_bound(
        grp.stem_forces.begin(), grp.stem_forces.end(), n,
        [](const auto& a, NodeIndex key) { return a.first < key; });
    return it != grp.stem_forces.end() && it->first == n ? it->second
                                                         : PackedVal3{};
  };

  // Seed: dirty flip-flop planes (clean ones equal the fault-free
  // machine and are skipped), output-stem forces on clean flip-flops,
  // stem-forced primary inputs / constants, and the injected gates
  // themselves.
  for (std::size_t i = 0; i < lc.dffs().size(); ++i) {
    if (!grp.state_dirty[i]) continue;
    const NodeIndex n = lc.dffs()[i];
    PackedVal3 v = grp.state[i];
    if (grp.flags[n] & kStemFlag) v = apply_force(v, stem_of(n));
    publish(n, v);
  }
  for (const auto& [pos, force] : grp.stem_dff_forces) {
    if (grp.state_dirty[pos]) continue;  // force folded in above
    const NodeIndex n = lc.dffs()[pos];
    publish(n, apply_force(bcast(good[n]), force));
  }
  for (const auto& [n, force] : grp.input_stem_forces) {
    publish(n, apply_force(bcast(good[n]), force));
  }
  for (const auto& [n, force] : grp.stem_gate_seeds) {
    publish(n, apply_force(bcast(good[n]), force));
  }
  for (const std::uint32_t gi : grp.seed_gates) {
    sched[gi >> 6] |= std::uint64_t{1} << (gi & 63);
  }

  // Union-cone sweep over the pending bitset. The compiled order is
  // level-sorted and a gate only schedules gates of a strictly higher
  // level, hence a strictly greater index — so one ascending pass over
  // the words is enough, re-reading a word until it stays clean to
  // catch same-word wake-ups. Consuming every bit leaves the bitset
  // all-zero between frames.
  std::uint64_t words = 0;
  const LevGate* gates = lc.gates().data();
  const NodeIndex* fanins = lc.fanins().data();
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
        PackedVal3 v;
        if ((brw >> k) & 1) [[unlikely]] {
          // Range of this gate's pin forces in the node-sorted list.
          const auto lo = std::lower_bound(
              grp.branch_forces.begin(), grp.branch_forces.end(), g.node,
              [](const auto& a, NodeIndex key) { return a.first < key; });
          const auto forced = [&](std::size_t i, PackedVal3 x) {
            for (auto it = lo;
                 it != grp.branch_forces.end() && it->first == g.node; ++it) {
              if (it->second.pin == i) x = apply_force(x, it->second.force);
            }
            return x;
          };
          if (g.arity <= 2) {
            v = eval_lev_gate<PackedOps>(g.op, g.arity, [&](std::size_t i) {
              return forced(i, load(i == 0 ? g.in0 : g.in1));
            });
          } else {
            const NodeIndex* in = fanins + g.in0;
            v = eval_lev_gate<PackedOps>(g.op, g.arity, [&](std::size_t i) {
              return forced(i, load(in[i]));
            });
          }
        } else if (g.and_form & kAndFormValid) {
          // Straight-line two-input Kleene AND under polarity masks —
          // no opcode dispatch. A Kleene complement of a packed plane
          // is a rail swap, done branchlessly as a masked xor-swap.
          const auto cnot = [](PackedVal3 x, std::uint64_t m) {
            const std::uint64_t t = (x.ones ^ x.zeros) & m;
            return PackedVal3{x.ones ^ t, x.zeros ^ t};
          };
          const std::uint8_t af = g.and_form;
          const PackedVal3 a = cnot(
              load(g.in0), -static_cast<std::uint64_t>(af & kAndFormInvIn0));
          const PackedVal3 b =
              cnot(load(g.in1),
                   -static_cast<std::uint64_t>((af & kAndFormInvIn1) != 0));
          v = cnot(PackedVal3{a.ones & b.ones, a.zeros | b.zeros},
                   -static_cast<std::uint64_t>((af & kAndFormInvOut) != 0));
        } else if (g.arity <= 2) {
          v = eval_lev_gate<PackedOps>(
              g.op, g.arity,
              [&](std::size_t i) { return load(i == 0 ? g.in0 : g.in1); });
        } else {
          const NodeIndex* in = fanins + g.in0;
          v = eval_lev_gate<PackedOps>(
              g.op, g.arity, [&](std::size_t i) { return load(in[i]); });
        }
        if ((stemw >> k) & 1) [[unlikely]] {
          v = apply_force(v, stem_of(g.node));
        }
        {
          // Branchless publish: the diverge-or-not pattern at the cone
          // frontier is data-dependent and mispredicts badly, so run
          // the store and the consumer bit-sets unconditionally and
          // neutralize them with a mask instead of branching. A stale
          // val under an old stamp is invisible, and OR-ing zero into
          // the schedule is a no-op.
          const NodeIndex n = g.node;
          const PackedVal3 pg = bcast(good[n]);
          v.ones = (v.ones & mask) | (pg.ones & ~mask);
          v.zeros = (v.zeros & mask) | (pg.zeros & ~mask);
          const bool diverges = !(v == pg);
          const std::uint64_t dm = -static_cast<std::uint64_t>(diverges);
          NodeSlot& sl = nodes[n];
          sl.val = v;
          sl.stamp = diverges ? epoch : sl.stamp;
          // Same-word consumers go to the `pending` register, not to
          // memory: re-reading sched[wi] here would chain every
          // iteration's branch on its own stores draining. Cross-word
          // consumers take the ordinary bit-set.
          const auto [fo, fe] = lc.fanout_gates(n);
          for (const std::uint32_t* it = fo; it != fe; ++it) {
            const std::uint32_t c = *it;
            const std::uint64_t b = (std::uint64_t{1} << (c & 63)) & dm;
            const std::uint64_t same =
                -static_cast<std::uint64_t>((c >> 6) == wi);
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

std::uint64_t BitParFaultSim3::simulate_frame(Group& grp, std::size_t t,
                                              const Val3* good,
                                              bool good_state_binary,
                                              Scratch& scratch,
                                              FaultSim3Result& result) const {
  const LevelizedCircuit& lc = *lc_;
  const std::uint64_t words = eval_frame_sparse(grp, good, grp.alive, scratch);

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
    if (grp.alive == 0) return words;
  }

  const std::uint64_t xbits = latch_group(grp, good, scratch);
  const std::uint64_t binary = good_state_binary ? grp.alive & ~xbits : 0;
  for (std::uint64_t fresh = binary & ~grp.binary; fresh != 0;
       fresh &= fresh - 1) {
    grp.binary_since[std::countr_zero(fresh)] =
        static_cast<std::uint32_t>(t + 1);
  }
  grp.binary = binary;
  return words;
}

BitParFaultSim3::ChunkStats BitParFaultSim3::simulate_chunk(
    Group& grp, std::size_t base,
    const std::vector<std::vector<Val3>>& good_frames,
    const std::vector<std::uint8_t>& good_binary, Scratch& scratch,
    FaultSim3Result& result) const {
  ChunkStats stats;
  for (std::size_t f = 0; f < good_frames.size() && grp.alive != 0; ++f) {
    stats.words += simulate_frame(grp, base + f, good_frames[f].data(),
                                  good_binary[f] != 0, scratch, result);
    ++stats.frames;
  }
  return stats;
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
  std::vector<std::uint8_t> good_binary;  ///< next state X-free, per frame

  auto run_chunk = [&](Group& grp, std::size_t base, Scratch& scratch) {
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry_ != nullptr) span = telemetry_->tracer.span("sim3.batch");
    const ChunkStats stats =
        simulate_chunk(grp, base, good_frames, good_binary, scratch, result);
    if (telemetry_ != nullptr) {
      telemetry_->metrics.counter("sim3.words_evaluated").add(stats.words);
      telemetry_->metrics.counter("sim3.batches").add(1);
      telemetry_->metrics.counter("sim3.levels")
          .add(lc.level_count() * stats.frames);
    }
  };

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
    good_binary.resize(len);
    for (std::size_t f = 0; f < len; ++f) {
      good.step(sequence[base + f]);
      good_frames[f] = good.values();
      good_binary[f] = std::all_of(good.state().begin(), good.state().end(),
                                   is_binary);
    }

    bool any_alive = false;
    if (threads_ > 1 && groups.size() > 1) {
      if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
      for (Group& grp : groups) {
        if (grp.alive == 0) continue;
        any_alive = true;
        // Distinct groups write distinct result entries, so the tasks
        // never alias; telemetry counters are thread-safe.
        pool_->submit([&run_chunk, &grp, base, this] {
          Scratch scratch(*lc_);
          run_chunk(grp, base, scratch);
        });
      }
      pool_->wait_idle();
    } else {
      // Serial path: frame-outer, group-inner — the fault-free plane
      // row and the scratch stay cache-resident across all groups
      // instead of re-streaming the whole chunk per group. Groups are
      // independent, so the visiting order cannot change results.
      if (!serial_scratch.has_value()) serial_scratch.emplace(lc);
      std::optional<obs::SpanTracer::Span> span;
      if (telemetry_ != nullptr) span = telemetry_->tracer.span("sim3.batch");
      std::uint64_t words = 0;
      std::uint64_t group_frames = 0;
      std::uint64_t batches = 0;
      for (const Group& grp : groups) batches += grp.alive != 0 ? 1 : 0;
      for (std::size_t f = 0; f < len; ++f) {
        const Val3* gvals = good_frames[f].data();
        for (Group& grp : groups) {
          if (grp.alive == 0) continue;
          any_alive = true;
          words += simulate_frame(grp, base + f, gvals, good_binary[f] != 0,
                                  *serial_scratch, result);
          ++group_frames;
        }
      }
      if (telemetry_ != nullptr) {
        telemetry_->metrics.counter("sim3.words_evaluated").add(words);
        telemetry_->metrics.counter("sim3.batches").add(batches);
        telemetry_->metrics.counter("sim3.levels")
            .add(lc.level_count() * group_frames);
      }
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
      for (const auto& [pos, v] : diffs[at + slot]) {
        set_slot(grp.state[pos], slot, v);
      }
    }
    window_groups_.push_back(std::move(grp));
  }
}

std::vector<std::uint32_t> BitParFaultSim3::step_window(
    const std::vector<Val3>& inputs) {
  good_.step(inputs);
  const Val3* gvals = good_.values().data();
  const LevelizedCircuit& lc = *lc_;
  Scratch& s = *window_scratch_;

  std::vector<std::uint32_t> observed;
  std::uint64_t words = 0;
  std::uint64_t frames = 0;
  for (std::size_t gi = 0; gi < window_groups_.size(); ++gi) {
    Group& grp = window_groups_[gi];
    std::optional<obs::SpanTracer::Span> span;
    if (telemetry_ != nullptr) span = telemetry_->tracer.span("sim3.batch");
    // Dropping only gates observation (grp.alive = not dropped): every
    // faulty machine keeps simulating exactly, so pass the full mask.
    words += eval_frame_sparse(grp, gvals, grp.full_mask, s);
    ++frames;

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

    latch_group(grp, gvals, s);
  }

  if (telemetry_ != nullptr) {
    telemetry_->metrics.counter("sim3.words_evaluated").add(words);
    telemetry_->metrics.counter("sim3.batches").add(window_groups_.size());
    telemetry_->metrics.counter("sim3.levels").add(lc.level_count() * frames);
  }
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
