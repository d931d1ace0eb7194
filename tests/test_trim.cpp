// Execution-redundancy trimming (analysis/trim, docs/ANALYSIS.md):
// the static activation plan itself, and the property the whole pass
// stands on — while no fallback window opens, trimmed runs are
// BIT-IDENTICAL to untrimmed runs, for every engine (hybrid, parallel
// with any thread count) and every strategy, and to the plain
// SymFaultSim reference, which runs no trimming of its own. Verdicts,
// detection frames AND store fingerprints must all match; only the
// work counters may differ. Once windows open, trimming is only pinned
// as sound (see TrimUnderWindows).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/cone.h"
#include "analysis/implication.h"
#include "analysis/trim.h"
#include "bench_data/registry.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/pipeline.h"
#include "core/sym_fault_sim.h"
#include "faults/collapse.h"
#include "faults/fault_list.h"
#include "reference.h"
#include "store/fingerprint.h"
#include "store/run_store.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using testing::small_random_circuit;

/// Constant AND feeding a two-deep flip-flop chain (mirrors
/// test_analysis's settled-chain): c is every-frame constant 0, q
/// settles from frame 2, q2 from frame 3. Faults on the chain become
/// statically dead once their activation net settles to the stuck
/// value.
Netlist settled_chain_circuit() {
  Netlist nl("settled");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex na = nl.add_gate(GateType::Not, {a}, "na");
  const NodeIndex c = nl.add_gate(GateType::And, {a, na}, "c");
  const NodeIndex q = nl.add_dff(c, "q");
  const NodeIndex q2 = nl.add_dff(q, "q2");
  const NodeIndex o = nl.add_gate(GateType::Or, {q2, a}, "o");
  nl.mark_output(o);
  nl.finalize();
  return nl;
}

/// Like the settled chain, but the dead cone hangs off an explicit
/// Const0 gate, so the STRUCTURAL constant propagation (all the
/// engines' self-built plans use) already proves g constant — the
/// engines park its faults without any implication learning.
Netlist const_chain_circuit() {
  Netlist nl("constchain");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex z = nl.add_gate(GateType::Const0, {}, "z");
  const NodeIndex g = nl.add_gate(GateType::And, {a, z}, "g");
  const NodeIndex q = nl.add_dff(g, "q");
  const NodeIndex o = nl.add_gate(GateType::Or, {q, a}, "o");
  nl.mark_output(o);
  nl.finalize();
  return nl;
}

/// Verdicts and detection frames of two runs (any mix of HybridResult
/// and SymFaultSimResult) must agree fault by fault.
template <typename A, typename B>
void expect_same_result(const A& a, const B& b, const Netlist& nl,
                        const std::vector<Fault>& faults, const char* what) {
  ASSERT_EQ(a.status.size(), b.status.size()) << what;
  EXPECT_EQ(a.detected_count, b.detected_count) << what;
  for (std::size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i])
        << what << " " << fault_name(nl, faults[i]);
    EXPECT_EQ(a.detect_frame[i], b.detect_frame[i])
        << what << " " << fault_name(nl, faults[i]);
  }
}

// ---------------------------------------------------------------------------
// TrimPlan construction
// ---------------------------------------------------------------------------

TEST(TrimPlan, AlignedWithFaultListAndDeadCountMatches) {
  const Netlist nl = make_benchmark("s344");
  const CollapsedFaultList c(nl);
  const TrimPlan plan = build_trim_plan(nl, c.faults());
  ASSERT_EQ(plan.dead_from.size(), c.size());
  std::size_t dead = 0;
  for (std::uint32_t f : plan.dead_from) dead += (f != 0);
  EXPECT_EQ(plan.dead_fault_count(), dead);
}

TEST(TrimPlan, SettledChainKillsStuckAtConstantFaults) {
  // c = AND(a, NOT a) is a RECONVERGENT constant — structural
  // propagation cannot see it, so this is exactly the case where the
  // implication-enriched plan beats the engines' self-built one.
  const Netlist nl = settled_chain_circuit();
  const NodeIndex c = nl.find("c");
  const NodeIndex q = nl.find("q");
  const NodeIndex q2 = nl.find("q2");
  const std::vector<Fault> faults = {
      {FaultSite{c, kStemPin}, false},   // c s-a-0: dead from frame 1
      {FaultSite{c, kStemPin}, true},    // c s-a-1: activated every frame
      {FaultSite{q, kStemPin}, false},   // q s-a-0: dead once q settles
      {FaultSite{q2, kStemPin}, false},  // q2 s-a-0: one frame later
  };
  EXPECT_EQ(build_trim_plan(nl, faults).dead_fault_count(), 0u);
  const ImplicationEngine eng(nl);
  const TrimPlan plan = build_trim_plan(eng, faults);
  ASSERT_EQ(plan.dead_from.size(), faults.size());
  EXPECT_EQ(plan.dead_from[0], 1u);
  EXPECT_EQ(plan.dead_from[1], 0u);
  EXPECT_EQ(plan.dead_from[2], 2u);
  EXPECT_EQ(plan.dead_from[3], 3u);
  EXPECT_EQ(plan.dead_fault_count(), 3u);
}

TEST(TrimPlan, ImplicationEnrichedPlanSubsumesStructural) {
  // The enriched plan may only mark MORE faults dead (or dead earlier)
  // than the structural one — never fewer, never later.
  for (const char* name : {"s27", "s344"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList c(nl);
    const TrimPlan structural = build_trim_plan(nl, c.faults());
    const ImplicationEngine eng(nl);
    const TrimPlan enriched = build_trim_plan(eng, c.faults());
    ASSERT_EQ(structural.dead_from.size(), enriched.dead_from.size());
    for (std::size_t i = 0; i < structural.dead_from.size(); ++i) {
      if (structural.dead_from[i] == 0) continue;
      ASSERT_NE(enriched.dead_from[i], 0u) << name << " fault " << i;
      EXPECT_LE(enriched.dead_from[i], structural.dead_from[i])
          << name << " fault " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// cluster_live_order
// ---------------------------------------------------------------------------

TEST(ConeClustering, LiveOrderIsAPermutationAndDeterministic) {
  const Netlist nl = make_benchmark("s344");
  const CollapsedFaultList c(nl);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < c.size(); i += 2) live.push_back(i);

  const std::vector<std::size_t> a = cluster_live_order(nl, c.faults(), live);
  const std::vector<std::size_t> b = cluster_live_order(nl, c.faults(), live);
  EXPECT_EQ(a, b);  // pure function, no hidden state

  std::vector<std::size_t> sorted_in = live;
  std::vector<std::size_t> sorted_out = a;
  std::sort(sorted_in.begin(), sorted_in.end());
  std::sort(sorted_out.begin(), sorted_out.end());
  EXPECT_EQ(sorted_in, sorted_out);  // a permutation of the input
}

TEST(ConeClustering, ShardMatesShareConeSignatures) {
  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList c(nl);
  std::vector<std::size_t> live(c.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
  const std::vector<std::size_t> order =
      cluster_live_order(nl, c.faults(), live);

  // After the reorder, equal signatures form one contiguous run.
  ConeAnalysis analysis(nl);
  std::vector<std::uint64_t> sigs;
  sigs.reserve(order.size());
  for (std::size_t idx : order) {
    sigs.push_back(analysis.fault_cone(c.faults()[idx]).signature);
  }
  std::vector<std::uint64_t> seen;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    if (i != 0 && sigs[i] == sigs[i - 1]) continue;
    EXPECT_EQ(std::count(seen.begin(), seen.end(), sigs[i]), 0)
        << "signature run split at position " << i;
    seen.push_back(sigs[i]);
  }
}

/// The per-fault-walk form of cluster_live_order: one ConeAnalysis
/// walk per live fault, grouped by signature in first-occurrence order.
std::vector<std::size_t> walk_cluster_order(
    const Netlist& nl, const std::vector<Fault>& faults,
    const std::vector<std::size_t>& live) {
  ConeAnalysis analysis(nl);
  std::vector<std::uint64_t> first_seen;
  std::vector<std::vector<std::size_t>> groups;
  for (const std::size_t g : live) {
    const std::uint64_t sig = analysis.fault_cone(faults[g]).signature;
    const auto it = std::find(first_seen.begin(), first_seen.end(), sig);
    if (it == first_seen.end()) {
      first_seen.push_back(sig);
      groups.push_back({g});
    } else {
      groups[static_cast<std::size_t>(it - first_seen.begin())].push_back(g);
    }
  }
  std::vector<std::size_t> order;
  for (const auto& group : groups) {
    order.insert(order.end(), group.begin(), group.end());
  }
  return order;
}

TEST(ConeClustering, LiveOrderMatchesPerFaultWalks) {
  for (const char* name :
       {"s27", "s298", "s344", "s713", "s953", "s1423", "s1494", "s5378"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList c(nl);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (i % 3 != 1) live.push_back(i);
    }
    EXPECT_EQ(cluster_live_order(nl, c.faults(), live),
              walk_cluster_order(nl, c.faults(), live))
        << name;
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: trimmed hybrid and parallel engines against the plain
// reference and the untrimmed engines (ample space — fallback window
// schedules are part of the identity contract only when no space
// pressure exists; see docs/PARALLEL.md)
// ---------------------------------------------------------------------------

SimOptions ample(Strategy s, bool trim) {
  SimOptions cfg;
  cfg.strategy = s;
  cfg.node_limit = 1u << 22;
  cfg.trim = trim;
  return cfg;
}

/// Trimming alone: the s-graph pass stays off so a trimming bug cannot
/// be masked or caused by the downgrade.
SimOptions trim_only(Strategy s) {
  SimOptions cfg = ample(s, true);
  cfg.sgraph = false;
  return cfg;
}

class TrimIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrimIdentity, PureSymbolicMatchesUntrimmed) {
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 7 + 3);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SymFaultSim plain(nl, c.faults(), s);
    const SymFaultSimResult rp = plain.run(seq);

    HybridFaultSim trimmed(nl, c.faults(), trim_only(s));
    const HybridResult rt = trimmed.run(seq);
    EXPECT_EQ(rt.fallback_windows, 0u) << to_cstring(s);
    expect_same_result(rp, rt, nl, c.faults(), to_cstring(s));
  }
}

TEST_P(TrimIdentity, HybridMatchesUntrimmed) {
  const Netlist nl = small_random_circuit(GetParam() + 40);
  Rng rng(GetParam() * 5 + 7);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), ample(s, false));
    const HybridResult rp = plain.run(seq);
    EXPECT_EQ(rp.frames_skipped, 0u);
    EXPECT_EQ(rp.faults_terminated_early, 0u);

    HybridFaultSim trimmed(nl, c.faults(), ample(s, true));
    const HybridResult rt = trimmed.run(seq);
    expect_same_result(rp, rt, nl, c.faults(), to_cstring(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrimIdentity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(TrimIdentityBench, S344AllStrategiesAllEngines) {
  const Netlist nl = make_benchmark("s344");
  Rng rng(99);
  const TestSequence seq = random_sequence(nl, 24, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), ample(s, false));
    const HybridResult rp = plain.run(seq);
    HybridFaultSim trimmed(nl, c.faults(), ample(s, true));
    const HybridResult rt = trimmed.run(seq);
    expect_same_result(rp, rt, nl, c.faults(), to_cstring(s));

    // Parallel, every thread count, trimmed: identical to BOTH serial
    // runs (which already match each other).
    for (std::size_t threads : {1u, 2u, 4u}) {
      SimOptions pc = ample(s, true);
      pc.threads = threads;
      pc.chunk_size = 48;
      ParallelSymSim par(nl, c.faults(), pc);
      const HybridResult rr = par.run(seq);
      expect_same_result(rp, rr, nl, c.faults(), to_cstring(s));
    }
  }
}

TEST(TrimIdentityBench, SettledChainSkipsFramesWithoutChangingVerdicts) {
  // The powered-up-X edge case: flip-flops start symbolic, so the
  // chain's faults can diverge in early frames before their activation
  // settles. Skipping must wait for the stored divergence to die out —
  // verdicts and frames must survive trimming unchanged.
  const Netlist nl = settled_chain_circuit();
  Rng rng(5);
  const TestSequence seq = random_sequence(nl, 10, rng);
  const std::vector<Fault> faults = all_faults(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SymFaultSim plain(nl, faults, s);
    const SymFaultSimResult rp = plain.run(seq);

    HybridFaultSim trimmed(nl, faults, trim_only(s));
    const HybridResult rt = trimmed.run(seq);
    EXPECT_EQ(rt.fallback_windows, 0u) << to_cstring(s);
    expect_same_result(rp, rt, nl, faults, to_cstring(s));

    // Input-cone nets carry concrete per-frame values, so quiescent
    // faults exist in every frame — the trimmed run must actually
    // skip work.
    EXPECT_GT(rt.frames_skipped, 0u) << to_cstring(s);
  }
}

TEST(TrimIdentityBench, ConstChainParksFaultsWithoutChangingVerdicts) {
  // Structurally constant cone: the engines' self-built plans already
  // mark g's stuck-at-0 fault dead, so SOT/rMOT must PARK it (stop
  // simulating for good) while MOT keeps accumulating its detection
  // function from the shared equality product.
  const Netlist nl = const_chain_circuit();
  Rng rng(7);
  const TestSequence seq = random_sequence(nl, 10, rng);
  const std::vector<Fault> faults = all_faults(nl);
  ASSERT_GT(build_trim_plan(nl, faults).dead_fault_count(), 0u);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, faults, ample(s, false));
    const HybridResult rp = plain.run(seq);

    HybridFaultSim trimmed(nl, faults, ample(s, true));
    const HybridResult rt = trimmed.run(seq);
    expect_same_result(rp, rt, nl, faults, to_cstring(s));

    EXPECT_GT(rt.frames_skipped, 0u) << to_cstring(s);
    if (s != Strategy::Mot) {
      EXPECT_GT(rt.faults_terminated_early, 0u) << to_cstring(s);
    } else {
      EXPECT_GT(rt.faultfree_evals_shared, 0u) << to_cstring(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Soundness while fallback windows are open
// ---------------------------------------------------------------------------

/// Runs the pipeline the way `motsim_cli <name> --seed <seed> --vectors
/// <vectors>` does (collapsed fault list, random sequence drawn from
/// the seed) with trimming off and on. Both runs must open fallback
/// windows, and every fault the trimmed run detects the untrimmed run
/// must detect with the same status and frame.
void expect_trim_sound_under_windows(const char* name, std::uint64_t seed,
                                     std::size_t vectors, SimOptions opts) {
  const Netlist nl = make_benchmark(name);
  const CollapsedFaultList c(nl);
  Rng rng(seed);
  const TestSequence seq = random_sequence(nl, vectors, rng);
  opts.seed = seed;
  opts.trim = false;
  const PipelineResult plain = run_pipeline(nl, c.faults(), seq, opts);
  opts.trim = true;
  const PipelineResult trimmed = run_pipeline(nl, c.faults(), seq, opts);

  // used_fallback is set exactly when at least one window ran.
  ASSERT_TRUE(plain.used_fallback) << name;
  ASSERT_TRUE(trimmed.used_fallback) << name;
  EXPECT_LE(trimmed.detected_symbolic, plain.detected_symbolic) << name;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!is_detected(trimmed.status[i])) continue;
    EXPECT_EQ(trimmed.status[i], plain.status[i])
        << name << " " << fault_name(nl, c.faults()[i]);
    EXPECT_EQ(trimmed.detect_frame[i], plain.detect_frame[i])
        << name << " " << fault_name(nl, c.faults()[i]);
  }
}

// Both cases are the ROADMAP item "Trimming changes verdicts once
// fallback windows open". Today the trimmed runs detect 77 (s953) and
// 0 (s526) faults symbolically against 79 and 1 untrimmed, and the
// common detections carry equal frames; once trimming is made exact
// under windows, tighten these checks to full equality.

TEST(TrimUnderWindows, S953MotSeed8IsSound) {
  SimOptions opts;
  opts.strategy = Strategy::Mot;
  expect_trim_sound_under_windows("s953", 8, 200, opts);
}

TEST(TrimUnderWindows, S526RmotSeed2SmallLimitIsSound) {
  SimOptions opts;
  opts.strategy = Strategy::Rmot;
  opts.node_limit = 2000;
  expect_trim_sound_under_windows("s526", 2, 150, opts);
}

// ---------------------------------------------------------------------------
// Store identity: trim is a pure performance knob
// ---------------------------------------------------------------------------

TEST(TrimStore, FingerprintIgnoresTrim) {
  SimOptions on;
  on.trim = true;
  SimOptions off = on;
  off.trim = false;
  EXPECT_EQ(fingerprint_options(on), fingerprint_options(off));
  EXPECT_FALSE(on == off);  // ...but the configurations DO differ
}

TEST(TrimStore, ManifestRoundTripsTrim) {
  StoreManifest m;
  m.circuit = "s27";
  m.sequence_length = 4;
  m.segment_lengths = {4};
  for (bool trim : {true, false}) {
    m.options.trim = trim;
    const std::string text = m.to_text();
    EXPECT_NE(text.find(trim ? "opt_trim 1" : "opt_trim 0"),
              std::string::npos);
    const auto parsed = StoreManifest::from_text(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error();
    EXPECT_EQ(parsed->options.trim, trim);
  }
}

TEST(TrimStore, LegacyManifestWithoutTrimLineResumesUntrimmed) {
  // Pre-trim manifests must load — and must come back with trim OFF,
  // so the shard partition they checkpointed under is recomputed
  // exactly (no cluster reorder).
  StoreManifest m;
  m.circuit = "s27";
  m.sequence_length = 4;
  m.segment_lengths = {4};
  m.options.trim = true;
  std::string text = m.to_text();
  const std::string line = "opt_trim 1\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, line.size());
  const auto parsed = StoreManifest::from_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_FALSE(parsed->options.trim);
}

// ---------------------------------------------------------------------------
// Plan plumbing
// ---------------------------------------------------------------------------

TEST(TrimPlumbing, MisalignedPlanIsRejected) {
  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList c(nl);
  TrimPlan bad;
  bad.dead_from.assign(c.size() + 1, 0);

  HybridFaultSim hybrid(nl, c.faults(), ample(Strategy::Mot, true));
  EXPECT_THROW(hybrid.set_trim_plan(bad), std::invalid_argument);

  SimOptions pc = ample(Strategy::Mot, true);
  pc.threads = 2;
  ParallelSymSim par(nl, c.faults(), pc);
  EXPECT_THROW(par.set_trim_plan(bad), std::invalid_argument);
}

TEST(TrimPlumbing, SuppliedPlanMatchesSelfBuiltPlan) {
  // Handing the engines the enriched plan the pipeline would build
  // must not change results relative to their self-built structural
  // plan (the enriched plan is sound, just stronger).
  const Netlist nl = settled_chain_circuit();
  Rng rng(17);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const std::vector<Fault> faults = all_faults(nl);
  const ImplicationEngine eng(nl);
  const TrimPlan enriched = build_trim_plan(eng, faults);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim self_built(nl, faults, ample(s, true));
    const HybridResult ra = self_built.run(seq);

    HybridFaultSim supplied(nl, faults, ample(s, true));
    supplied.set_trim_plan(enriched);
    const HybridResult rb = supplied.run(seq);
    expect_same_result(ra, rb, nl, faults, to_cstring(s));
  }
}

}  // namespace
}  // namespace motsim
