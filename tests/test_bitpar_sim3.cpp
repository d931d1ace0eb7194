// Bit-parallel fault simulator: packed-logic algebra, exact agreement
// (status AND detection frame) with the serial event-driven simulator
// across the roster and random circuits, the two-valued path's entry
// and exit, window-session parity, and the FaultSimulator3 factory
// surface.

#include <gtest/gtest.h>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "faults/collapse.h"
#include "faults/fault_list.h"
#include "sim3/good_sim3.h"
#include "logic/packed_val3.h"
#include "obs/telemetry.h"
#include "reference.h"
#include "sim3/bitpar_sim3.h"
#include "sim3/fault_sim3.h"
#include "sim3/fault_simulator.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using testing::small_random_circuit;

const Val3 kAll3[] = {Val3::Zero, Val3::One, Val3::X};

TEST(PackedVal3, BroadcastAndSlotRoundTrip) {
  for (Val3 v : kAll3) {
    const PackedVal3 p = broadcast(v);
    for (unsigned slot : {0u, 1u, 31u, 63u}) {
      EXPECT_EQ(slot_value(p, slot), v);
    }
  }
}

TEST(PackedVal3, SetSlotOverwritesOnlyThatSlot) {
  for (Val3 base : kAll3) {
    for (Val3 v : kAll3) {
      PackedVal3 p = broadcast(base);
      set_slot(p, 17, v);
      EXPECT_EQ(slot_value(p, 17), v);
      EXPECT_EQ(slot_value(p, 16), base);
      EXPECT_EQ(slot_value(p, 18), base);
      EXPECT_EQ(p.ones & p.zeros, 0u);
    }
  }
}

TEST(PackedVal3, ApplyForceOverridesForcedSlotsOnly) {
  PackedVal3 v = broadcast(Val3::X);
  const PackedVal3 force{/*ones=*/0b01, /*zeros=*/0b10};  // slot0 sa1, slot1 sa0
  const PackedVal3 r = apply_force(v, force);
  EXPECT_EQ(slot_value(r, 0), Val3::One);
  EXPECT_EQ(slot_value(r, 1), Val3::Zero);
  EXPECT_EQ(slot_value(r, 2), Val3::X);

  v = broadcast(Val3::One);
  const PackedVal3 r2 = apply_force(v, force);
  EXPECT_EQ(slot_value(r2, 0), Val3::One);
  EXPECT_EQ(slot_value(r2, 1), Val3::Zero);
  EXPECT_EQ(slot_value(r2, 2), Val3::One);
}

TEST(PackedVal3, OpsMatchScalarKleeneLogic) {
  // Pack all 9 operand combinations into 9 slots and compare each
  // slot against the scalar operations.
  PackedVal3 a{}, b{};
  Val3 sa[9], sb[9];
  unsigned slot = 0;
  for (Val3 va : kAll3) {
    for (Val3 vb : kAll3) {
      const std::uint64_t bit = std::uint64_t{1} << slot;
      if (va == Val3::One) a.ones |= bit;
      if (va == Val3::Zero) a.zeros |= bit;
      if (vb == Val3::One) b.ones |= bit;
      if (vb == Val3::Zero) b.zeros |= bit;
      sa[slot] = va;
      sb[slot] = vb;
      ++slot;
    }
  }
  const PackedVal3 pa = pand(a, b);
  const PackedVal3 po = por(a, b);
  const PackedVal3 px = pxor(a, b);
  const PackedVal3 pn = pnot(a);
  for (unsigned s = 0; s < 9; ++s) {
    EXPECT_EQ(slot_value(pa, s), and3(sa[s], sb[s])) << s;
    EXPECT_EQ(slot_value(po, s), or3(sa[s], sb[s])) << s;
    EXPECT_EQ(slot_value(px, s), xor3(sa[s], sb[s])) << s;
    EXPECT_EQ(slot_value(pn, s), not3(sa[s])) << s;
  }
}

TEST(PackedVal3, InvariantOnesAndZerosDisjoint) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    // Construct well-formed packs and check closure of the ops.
    const std::uint64_t o1 = rng(), z1 = rng() & ~o1;
    const std::uint64_t o2 = rng(), z2 = rng() & ~o2;
    const PackedVal3 a{o1, z1}, b{o2, z2};
    for (PackedVal3 r : {pand(a, b), por(a, b), pxor(a, b), pnot(a)}) {
      EXPECT_EQ(r.ones & r.zeros, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Exact agreement with the serial simulator
// ---------------------------------------------------------------------------

/// sim3.* counters of one bit-parallel run.
struct PathCounts {
  std::uint64_t binary = 0;  ///< sim3.binary_group_frames
  std::uint64_t total = 0;   ///< sim3.batches (group-frames)
};

PathCounts counts_of(obs::Telemetry& tele) {
  return {tele.metrics.counter("sim3.binary_group_frames").value(),
          tele.metrics.counter("sim3.batches").value()};
}

/// Runs both backends over `faults` and requires identical statuses,
/// detection frames and exact_from; returns the bit-parallel run's
/// path counters.
PathCounts expect_same_results(const Netlist& nl,
                               const std::vector<Fault>& faults,
                               const TestSequence& seq,
                               const std::vector<FaultStatus>* initial,
                               std::size_t threads) {
  FaultSim3 serial(nl, faults);
  BitParFaultSim3 parallel(nl, faults, threads);
  obs::Telemetry tele;
  parallel.set_telemetry(&tele);
  if (initial != nullptr) {
    serial.set_initial_status(*initial);
    parallel.set_initial_status(*initial);
  }
  const auto rs = serial.run(seq);
  const auto rp = parallel.run(seq);

  EXPECT_EQ(rs.detected_count, rp.detected_count) << nl.name();
  EXPECT_EQ(rs.simulated_faults, rp.simulated_faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(rs.status[i], rp.status[i])
        << nl.name() << " " << fault_name(nl, faults[i]);
    EXPECT_EQ(rs.detect_frame[i], rp.detect_frame[i])
        << nl.name() << " " << fault_name(nl, faults[i]);
    EXPECT_EQ(rs.exact_from[i], rp.exact_from[i])
        << nl.name() << " " << fault_name(nl, faults[i]);
  }
  return counts_of(tele);
}

PathCounts expect_same_results(const Netlist& nl, const TestSequence& seq,
                               const std::vector<FaultStatus>* initial = nullptr,
                               std::size_t threads = 1) {
  const CollapsedFaultList c(nl);
  return expect_same_results(nl, c.faults(), seq, initial, threads);
}

TEST(BitParFaultSim3, MatchesSerialOnS27) {
  const Netlist nl = make_s27();
  Rng rng(11);
  expect_same_results(nl, random_sequence(nl, 50, rng));
}

class ParallelVsSerial : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelVsSerial, IdenticalOnRandomCircuits) {
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 101 + 13);
  expect_same_results(nl, random_sequence(nl, 15, rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelVsSerial,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(BitParFaultSim3, MatchesSerialOnRosterCircuits) {
  Rng rng(17);
  for (const char* name : {"s298", "s344", "s820", "s208.1", "s510"}) {
    const Netlist nl = make_benchmark(name);
    expect_same_results(nl, random_sequence(nl, 40, rng));
  }
}

TEST(BitParFaultSim3, ThreadCountNeverChangesResults) {
  // The group partition depends only on the fault-list order, so the
  // worker count is invisible in the results.
  Rng rng(29);
  const Netlist nl = make_benchmark("s298");
  const TestSequence seq = random_sequence(nl, 30, rng);
  expect_same_results(nl, seq, nullptr, /*threads=*/1);
  expect_same_results(nl, seq, nullptr, /*threads=*/3);
}

TEST(BitParFaultSim3, ExactFromMatchesEventBackendAndThreadCounts) {
  // Settled circuits, long enough for chunk-boundary compaction to
  // repack groups mid-streak, once with X vectors early and late in
  // the sequence (exact_from never precedes the last one).
  for (const char* name : {"s386", "s713", "s1488", "s1494"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList c(nl);
    Rng rng(41);
    TestSequence seq = random_sequence(nl, 200, rng);
    for (const bool with_x : {false, true}) {
      if (with_x) {
        seq[3][0] = Val3::X;
        seq[120][nl.input_count() - 1] = Val3::X;
      }
      const std::uint32_t last_x = with_x ? 121 : 0;
      EXPECT_EQ(last_nonbinary_frame(seq, nl.input_count()), last_x);
      FaultSim3 event(nl, c.faults());
      const FaultSim3Result re = event.run(seq);
      std::size_t exact = 0;
      for (std::size_t i = 0; i < c.size(); ++i) {
        if (re.exact_from[i] == 0) continue;
        ++exact;
        EXPECT_EQ(re.status[i], FaultStatus::Undetected);
        EXPECT_GE(re.exact_from[i], last_x);
        EXPECT_LE(re.exact_from[i], seq.size());
      }
      EXPECT_GT(exact, 0u) << name;  // not vacuous
      for (const std::size_t threads : {1u, 4u}) {
        BitParFaultSim3 bitpar(nl, c.faults(), threads);
        EXPECT_EQ(bitpar.run(seq).exact_from, re.exact_from)
            << name << " threads=" << threads << (with_x ? " with X" : "");
      }
    }
  }
}

TEST(BitParFaultSim3, ExactFromCountsALatchForcedFlipFlopAsBinary) {
  // p's D pin is stuck at 1. In frame 2 the fault-free machine
  // synchronizes (q <- q & a with a = 0, p <- p & q & b with p = 0),
  // while the faulty machine computes X for p's D input (p = 1, q = X)
  // that the stuck pin then overrides: both next states are X-free, so
  // exact_from is 2 — not 3, as it would be if the X of the D plane
  // counted.
  Netlist nl("forced");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex p = nl.add_dff(kNoNode, "p");
  nl.set_fanins(q, {nl.add_gate(GateType::And, {q, a}, "dq")});
  nl.set_fanins(p, {nl.add_gate(GateType::And, {p, q, b}, "dp")});
  nl.mark_output(nl.add_gate(GateType::Buf, {a}, "o"));
  nl.finalize();
  const std::vector<Fault> faults{Fault{FaultSite{p, 0}, true}};
  const TestSequence seq{{Val3::One, Val3::Zero},
                         {Val3::Zero, Val3::One},
                         {Val3::Zero, Val3::One}};

  FaultSim3 event(nl, faults);
  BitParFaultSim3 bitpar(nl, faults);
  const FaultSim3Result re = event.run(seq);
  ASSERT_EQ(re.status[0], FaultStatus::Undetected);
  EXPECT_EQ(re.exact_from[0], 2u);
  EXPECT_EQ(bitpar.run(seq).exact_from, re.exact_from);
}

TEST(BitParFaultSim3, RespectsInitialStatus) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  Rng rng(19);
  const TestSequence seq = random_sequence(nl, 30, rng);

  std::vector<FaultStatus> initial(c.size(), FaultStatus::Undetected);
  for (std::size_t i = 0; i < initial.size(); i += 2) {
    initial[i] = FaultStatus::XRedundant;
  }
  expect_same_results(nl, seq, &initial);

  BitParFaultSim3 sim(nl, c.faults());
  sim.set_initial_status(initial);
  const auto r = sim.run(seq);
  for (std::size_t i = 0; i < initial.size(); i += 2) {
    EXPECT_EQ(r.status[i], FaultStatus::XRedundant);
  }
}

TEST(BitParFaultSim3, GroupsLargerThan64Faults) {
  // s298-like has >64 faults, exercising multi-group packing.
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList c(nl);
  ASSERT_GT(c.size(), 64u);
  Rng rng(23);
  expect_same_results(nl, random_sequence(nl, 25, rng));
}

TEST(BitParFaultSim3, EmptySequenceDetectsNothing) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  BitParFaultSim3 sim(nl, c.faults());
  const auto r = sim.run({});
  EXPECT_EQ(r.detected_count, 0u);
}

TEST(BitParFaultSim3, EmitsTelemetryCounters) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  Rng rng(31);
  obs::Telemetry tele;
  BitParFaultSim3 sim(nl, c.faults());
  sim.set_telemetry(&tele);
  (void)sim.run(random_sequence(nl, 10, rng));
  EXPECT_GT(tele.metrics.counter("sim3.words_evaluated").value(), 0u);
  EXPECT_GT(tele.metrics.counter("sim3.batches").value(), 0u);
  EXPECT_GT(tele.metrics.counter("sim3.levels").value(), 0u);
}

// ---------------------------------------------------------------------------
// Two-valued path: a group-frame with no X source runs on one word per
// node. Results must stay identical to the event backend while groups
// leave the path on an X and re-enter it once the machines resettle.
// ---------------------------------------------------------------------------

TEST(TwoValuedPath, XInputsMidRunLeaveAndReenterThePath) {
  for (const char* name : {"s386", "s713", "s1423", "s1488", "s1494"}) {
    const Netlist nl = make_benchmark(name);
    Rng rng(43);
    // s1423's fault-free machine settles late, so the X vectors come
    // after frame 100.
    TestSequence seq = random_sequence(nl, 240, rng);
    seq[100][0] = Val3::X;
    seq[101][nl.input_count() - 1] = Val3::X;
    seq[130][nl.input_count() / 2] = Val3::X;
    // Everything up to and including the last X vector: the full run
    // must add two-valued group-frames after it.
    const TestSequence prefix(seq.begin(), seq.begin() + 131);
    const PathCounts before = expect_same_results(nl, prefix);
    for (const std::size_t threads : {1u, 4u}) {
      const PathCounts full = expect_same_results(nl, seq, nullptr, threads);
      EXPECT_GT(before.binary, 0u) << name;
      EXPECT_GT(full.binary, before.binary) << name << " threads=" << threads;
      EXPECT_LT(full.binary, full.total) << name;
    }
  }
}

TEST(TwoValuedPath, FiresOnS1488AndNeverOnAnXVector) {
  const Netlist nl = make_benchmark("s1488");
  Rng rng(47);
  TestSequence seq = random_sequence(nl, 200, rng);
  const PathCounts binary = expect_same_results(nl, seq);
  EXPECT_GT(binary.binary, 0u);
  EXPECT_LE(binary.binary, binary.total);

  // One X input per vector: every frame keeps the three-valued planes.
  for (std::size_t t = 0; t < seq.size(); ++t) {
    seq[t][t % nl.input_count()] = Val3::X;
  }
  const PathCounts with_x = expect_same_results(nl, seq);
  EXPECT_GT(with_x.total, 0u);
  EXPECT_EQ(with_x.binary, 0u);
}

/// Every kind of injection: stem faults on primary inputs and
/// flip-flops, D-pin faults (latch forces), and branch faults on
/// XOR/XNOR, wide AND/NOR and NOT/BUF pins. Inputs a = 1 synchronize
/// the machine in three frames.
Netlist every_force_kind() {
  Netlist nl("forces");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex c = nl.add_input("c");
  const NodeIndex e = nl.add_input("e");
  const NodeIndex p = nl.add_dff(kNoNode, "p");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex r = nl.add_dff(kNoNode, "r");
  const NodeIndex x1 = nl.add_gate(GateType::Xor, {a, p}, "x1");
  const NodeIndex x2 = nl.add_gate(GateType::Xnor, {q, b, c}, "x2");
  const NodeIndex w = nl.add_gate(GateType::And, {a, b, q, r}, "w");
  const NodeIndex w2 = nl.add_gate(GateType::Nor, {c, e, p}, "w2");
  const NodeIndex n1 = nl.add_gate(GateType::Not, {x1}, "n1");
  const NodeIndex b1 = nl.add_gate(GateType::Buf, {w}, "b1");
  nl.mark_output(nl.add_gate(GateType::Or, {n1, b1}, "o1"));
  nl.mark_output(nl.add_gate(GateType::Nand, {x2, w2}, "o2"));
  nl.mark_output(nl.add_gate(GateType::Xor, {p, r, e}, "o3"));
  nl.set_fanins(p, {x2});
  nl.set_fanins(q, {nl.add_gate(GateType::Or, {w2, a}, "dq")});
  nl.set_fanins(r, {nl.add_gate(GateType::And, {n1, b}, "dr")});
  nl.finalize();
  return nl;
}

TEST(TwoValuedPath, EveryForceKindMatchesTheEventBackend) {
  const Netlist nl = every_force_kind();
  const std::vector<Fault> faults = all_faults(nl);
  ASSERT_GT(faults.size(), 64u);  // two groups, so threads = 4 batches
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    TestSequence seq = random_sequence(nl, 40, rng);
    for (std::size_t t = 0; t < 3; ++t) seq[t][0] = Val3::One;
    seq[20][3] = Val3::X;
    for (const std::size_t threads : {1u, 4u}) {
      const PathCounts counts =
          expect_same_results(nl, faults, seq, nullptr, threads);
      EXPECT_GT(counts.binary, 0u) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Window sessions: both backends must report the same observations,
// survivors and state divergences frame by frame.
// ---------------------------------------------------------------------------

/// Steps both backends through one window session from `good_state`
/// and `diffs` (one entry per collapsed fault) and compares every
/// observation, survivor and divergence; stores the bit-parallel
/// session's path counters in `*counts` when given.
void expect_same_windows(const Netlist& nl, const TestSequence& seq,
                         std::uint64_t drop_seed,
                         const std::vector<Val3>& good_state,
                         std::vector<StateDiff3> diffs,
                         PathCounts* counts = nullptr) {
  const CollapsedFaultList c(nl);
  obs::Telemetry tele;
  Sim3EngineConfig ec;
  ec.telemetry = &tele;
  const auto event = make_fault_simulator3(Sim3Backend::Event, nl, c.faults());
  const auto bitpar =
      make_fault_simulator3(Sim3Backend::BitPar, nl, c.faults(), ec);

  std::vector<std::size_t> indices(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) indices[i] = i;

  event->begin_window(good_state, indices, diffs);
  bitpar->begin_window(good_state, indices, std::move(diffs));

  // Drop a pseudo-random half of the observations, identically on
  // both engines, to exercise alive-mask handling.
  Rng rng(drop_seed);
  for (const auto& vec : seq) {
    const auto oe = event->step_window(vec);
    const auto ob = bitpar->step_window(vec);
    ASSERT_EQ(oe, ob);
    for (const std::uint32_t pos : oe) {
      if (rng.chance(0.5)) {
        event->drop_window_fault(pos);
        bitpar->drop_window_fault(pos);
      }
    }
    ASSERT_EQ(event->window_live(), bitpar->window_live());
  }

  ASSERT_EQ(event->window_state(), bitpar->window_state());
  for (std::uint32_t pos = 0; pos < c.size(); ++pos) {
    ASSERT_EQ(event->window_fault_alive(pos), bitpar->window_fault_alive(pos))
        << pos;
    if (event->window_fault_alive(pos)) {
      EXPECT_EQ(event->window_diff(pos), bitpar->window_diff(pos)) << pos;
    }
  }
  event->end_window();
  bitpar->end_window();
  if (counts != nullptr) *counts = counts_of(tele);
}

void expect_same_windows(const Netlist& nl, const TestSequence& seq,
                         std::uint64_t drop_seed) {
  const CollapsedFaultList c(nl);
  expect_same_windows(nl, seq, drop_seed,
                      std::vector<Val3>(nl.dff_count(), Val3::X),
                      std::vector<StateDiff3>(c.size()));
}

TEST(BitParFaultSim3, WindowSessionsMatchEventBackend) {
  Rng rng(37);
  const Netlist nl = make_s27();
  expect_same_windows(nl, random_sequence(nl, 25, rng), 7);
}

class WindowParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowParity, RandomCircuits) {
  const Netlist nl = small_random_circuit(GetParam() + 400);
  Rng rng(GetParam() * 57 + 3);
  expect_same_windows(nl, random_sequence(nl, 12, rng), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowParity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(TwoValuedPath, WindowsEnteredFromASettledState) {
  // The settled hand-off's shape: a binary fault-free state and binary
  // divergences, so the first step already runs two-valued. An X input
  // mid-session, or one X divergence in some group, must leave it.
  for (const char* name : {"s713", "s1488"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList c(nl);
    Rng rng(53);
    const TestSequence warmup = random_sequence(nl, 60, rng);
    GoodSim3 good(nl);
    for (const auto& vec : warmup) good.step(vec);
    const std::vector<Val3> state = good.state();
    ASSERT_TRUE(std::all_of(state.begin(), state.end(), is_binary)) << name;

    std::vector<StateDiff3> diffs(c.size());
    for (std::size_t i = 0; i < c.size(); i += 3) {
      const std::uint32_t pos = static_cast<std::uint32_t>(i % state.size());
      diffs[i].emplace_back(pos, not3(state[pos]));
    }
    TestSequence seq = random_sequence(nl, 30, rng);
    PathCounts settled;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_windows(nl, seq, 5, state, diffs, &settled));
    EXPECT_EQ(settled.binary, settled.total) << name;

    seq[10][0] = Val3::X;
    PathCounts with_x;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_windows(nl, seq, 5, state, diffs, &with_x));
    EXPECT_GT(with_x.binary, 0u) << name;
    EXPECT_LT(with_x.binary, with_x.total) << name;

    diffs[c.size() - 1] = {{0, Val3::X}};
    PathCounts x_slot;
    ASSERT_NO_FATAL_FAILURE(
        expect_same_windows(nl, seq, 5, state, diffs, &x_slot));
    EXPECT_LT(x_slot.binary, with_x.binary) << name;
  }
}

TEST(BitParFaultSim3, WindowBeginRejectsMismatchedDiffs) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  BitParFaultSim3 sim(nl, c.faults());
  EXPECT_THROW(
      sim.begin_window(std::vector<Val3>(nl.dff_count(), Val3::X), {0, 1},
                       std::vector<StateDiff3>(1)),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FaultSimulator3 factory and backend tokens
// ---------------------------------------------------------------------------

TEST(FaultSimulator3, FactoryConstructsRequestedBackend) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  const auto event = make_fault_simulator3(Sim3Backend::Event, nl, c.faults());
  const auto bitpar =
      make_fault_simulator3(Sim3Backend::BitPar, nl, c.faults());
  EXPECT_EQ(event->backend(), Sim3Backend::Event);
  EXPECT_EQ(bitpar->backend(), Sim3Backend::BitPar);
  EXPECT_EQ(event->faults().size(), c.size());
  EXPECT_EQ(bitpar->faults().size(), c.size());
}

TEST(FaultSimulator3, BackendTokensRoundTrip) {
  EXPECT_STREQ(to_cstring(Sim3Backend::Event), "event");
  EXPECT_STREQ(to_cstring(Sim3Backend::BitPar), "bitpar");
  EXPECT_EQ(parse_sim3_backend("event"), Sim3Backend::Event);
  EXPECT_EQ(parse_sim3_backend("bitpar"), Sim3Backend::BitPar);
  EXPECT_FALSE(parse_sim3_backend("turbo").has_value());
  EXPECT_FALSE(parse_sim3_backend("").has_value());
}

TEST(FaultSimulator3, InitialStatusSizeIsChecked) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  const auto sim = make_fault_simulator3(Sim3Backend::BitPar, nl, c.faults());
  EXPECT_THROW(sim->set_initial_status({FaultStatus::Undetected}),
               std::invalid_argument);
}

}  // namespace
}  // namespace motsim
