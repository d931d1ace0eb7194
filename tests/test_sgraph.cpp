// S-graph static analysis (analysis/sgraph, docs/ANALYSIS.md pass 6):
// SCC condensation of the flip-flop dependency graph, the
// synchronization-depth bounds it yields, and the property the
// MOT/rMOT -> SOT downgrade stands on — sgraph-enabled runs are
// BIT-IDENTICAL to plain runs for every engine and strategy, and the
// depths themselves are sound against the symbolic true-value
// machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/cone.h"
#include "analysis/diagnostics.h"
#include "analysis/lint.h"
#include "analysis/sgraph.h"
#include "analysis/testability.h"
#include "bdd/bdd.h"
#include "bench_data/registry.h"
#include "bench_data/synth_gen.h"
#include "circuit/bench_io.h"
#include "circuit/stats.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/sym_fault_sim.h"
#include "core/sym_true_value.h"
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

/// Position of a flip-flop node in the netlist's dff order (the
/// s-graph vertex index).
std::uint32_t dff_position(const Netlist& nl, NodeIndex node) {
  const auto& dffs = nl.dffs();
  const auto it = std::find(dffs.begin(), dffs.end(), node);
  EXPECT_NE(it, dffs.end());
  return static_cast<std::uint32_t>(it - dffs.begin());
}

// ---------------------------------------------------------------------------
// Structure: SCCs, taint, depths
// ---------------------------------------------------------------------------

TEST(SgraphStructure, SelfLoopDffIsANontrivialScc) {
  // q's next state reads q itself: a one-vertex SCC with a self-loop
  // must count as nontrivial, so q never synchronizes.
  Netlist nl("selfloop");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  const NodeIndex d = nl.add_gate(GateType::Nor, {a, q}, "d");
  nl.set_fanins(q, {d});
  const NodeIndex o = nl.add_gate(GateType::Or, {q, a}, "o");
  nl.mark_output(o);
  nl.finalize();

  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.ff_count(), 1u);
  EXPECT_EQ(info.scc_count, 1u);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_EQ(info.acyclic_ffs, 0u);
  EXPECT_TRUE(info.in_nontrivial_scc[0]);
  EXPECT_TRUE(info.tainted[0]);
  EXPECT_EQ(info.init_depth[0], kInfDepth);
  EXPECT_EQ(info.preds[0], std::vector<std::uint32_t>{0});
  // The output reads q, so its horizon is unbounded.
  ASSERT_EQ(info.output_horizon.size(), 1u);
  EXPECT_EQ(info.output_horizon[0], kInfDepth);
}

TEST(SgraphStructure, MutuallyFedPairFormsOneScc) {
  Netlist nl("pair");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex q1 = nl.add_dff(kNoNode, "q1");
  const NodeIndex q2 = nl.add_dff(kNoNode, "q2");
  nl.set_fanins(q1, {nl.add_gate(GateType::Nor, {a, q2}, "d1")});
  nl.set_fanins(q2, {nl.add_gate(GateType::Nand, {b, q1}, "d2")});
  const NodeIndex o = nl.add_gate(GateType::Xor, {q1, q2}, "o");
  nl.mark_output(o);
  nl.finalize();

  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.ff_count(), 2u);
  const std::uint32_t p1 = dff_position(nl, q1);
  const std::uint32_t p2 = dff_position(nl, q2);
  EXPECT_EQ(info.scc_id[p1], info.scc_id[p2]);  // merged into one SCC
  EXPECT_EQ(info.scc_count, 1u);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_TRUE(info.in_nontrivial_scc[p1]);
  EXPECT_TRUE(info.in_nontrivial_scc[p2]);
  EXPECT_EQ(info.init_depth[p1], kInfDepth);
  EXPECT_EQ(info.init_depth[p2], kInfDepth);
  // Neither FF self-loops, the cycle runs through the partner.
  EXPECT_EQ(info.preds[p1], std::vector<std::uint32_t>{p2});
  EXPECT_EQ(info.preds[p2], std::vector<std::uint32_t>{p1});
  // Breaking the two-cycle needs exactly one scanned FF.
  EXPECT_EQ(greedy_feedback_set(info).size(), 1u);
}

/// Acyclic two-stage prefix feeding a mutually-fed pair, with one more
/// flip-flop downstream of the pair:
///   ff1 <- input only        (depth 1)
///   ff2 <- ff1               (depth 2)
///   {ff3, ff4} mutual cycle, seeded by ff2   (nontrivial SCC)
///   ff5 <- ff3               (downstream of the SCC: tainted)
Netlist chain_into_scc_circuit() {
  Netlist nl("chainscc");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex f1 = nl.add_dff(nl.add_gate(GateType::Not, {a}, "d1"), "f1");
  const NodeIndex f2 = nl.add_dff(nl.add_gate(GateType::Buf, {f1}, "d2"), "f2");
  const NodeIndex f3 = nl.add_dff(kNoNode, "f3");
  const NodeIndex f4 = nl.add_dff(kNoNode, "f4");
  nl.set_fanins(f3, {nl.add_gate(GateType::Nor, {f2, f4}, "d3")});
  nl.set_fanins(f4, {nl.add_gate(GateType::Nand, {a, f3}, "d4")});
  const NodeIndex f5 = nl.add_dff(nl.add_gate(GateType::Buf, {f3}, "d5"), "f5");
  const NodeIndex o = nl.add_gate(GateType::Or, {f5, f2}, "o");
  nl.mark_output(o);
  nl.finalize();
  return nl;
}

TEST(SgraphStructure, CondensationOrderAndDepthChain) {
  const Netlist nl = chain_into_scc_circuit();
  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.ff_count(), 5u);
  const std::uint32_t p1 = dff_position(nl, nl.find("f1"));
  const std::uint32_t p2 = dff_position(nl, nl.find("f2"));
  const std::uint32_t p3 = dff_position(nl, nl.find("f3"));
  const std::uint32_t p4 = dff_position(nl, nl.find("f4"));
  const std::uint32_t p5 = dff_position(nl, nl.find("f5"));

  // Depths: 1, 2 on the acyclic prefix; unbounded in and below the SCC.
  EXPECT_EQ(info.init_depth[p1], 1u);
  EXPECT_EQ(info.init_depth[p2], 2u);
  EXPECT_EQ(info.init_depth[p3], kInfDepth);
  EXPECT_EQ(info.init_depth[p4], kInfDepth);
  EXPECT_EQ(info.init_depth[p5], kInfDepth);
  EXPECT_EQ(info.max_finite_init_depth, 2u);
  EXPECT_EQ(info.acyclic_ffs, 2u);

  // f5 is tainted but NOT in a nontrivial SCC itself.
  EXPECT_FALSE(info.in_nontrivial_scc[p5]);
  EXPECT_TRUE(info.tainted[p5]);

  // 4 SCCs: {f1}, {f2}, {f3,f4}, {f5}; one nontrivial.
  EXPECT_EQ(info.scc_count, 4u);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_EQ(info.scc_id[p3], info.scc_id[p4]);

  // Condensation order: ids are a reverse topological order — every
  // cross-SCC edge u -> v (u in preds[v]) satisfies
  // scc_id[v] < scc_id[u].
  for (std::uint32_t v = 0; v < info.ff_count(); ++v) {
    for (const std::uint32_t u : info.preds[v]) {
      if (info.scc_id[u] == info.scc_id[v]) continue;
      EXPECT_LT(info.scc_id[v], info.scc_id[u])
          << "edge " << u << " -> " << v << " violates completion order";
    }
  }
}

TEST(SgraphStructure, S27IsEntirelyCyclic) {
  // s27's three flip-flops split into two nontrivial SCCs ({G5,G6}
  // and the G7 self-loop): nothing synchronizes, every fault horizon
  // is unbounded — the workload where the downgrade must never fire.
  const Netlist nl = make_benchmark("s27");
  const SgraphInfo info = build_sgraph(nl);
  EXPECT_EQ(info.ff_count(), 3u);
  EXPECT_EQ(info.scc_count, 2u);
  EXPECT_EQ(info.nontrivial_scc_count, 2u);
  EXPECT_EQ(info.acyclic_ffs, 0u);

  const CollapsedFaultList c(nl);
  const SgraphPlan plan = build_sgraph_plan(nl, info, c.faults());
  ASSERT_EQ(plan.horizon.size(), c.size());
  EXPECT_EQ(plan.finite_horizon_count(), 0u);
  EXPECT_EQ(plan.nontrivial_sccs, 2u);
}

// ---------------------------------------------------------------------------
// Linear passes against per-walk references
// ---------------------------------------------------------------------------

/// Frame-local flip-flop support of `node` by one backward ConeWalker
/// walk that stops at flip-flops (a flip-flop node is its own
/// support): the definition the bitset fold of build_sgraph computes.
std::vector<std::uint32_t> walk_support(const Netlist& nl, ConeWalker& walker,
                                        NodeIndex node) {
  if (nl.type(node) == GateType::Dff) return {nl.dff_position(node)};
  std::vector<std::uint32_t> ffs;
  walker.run(ConeDir::Backward, {node}, /*cross_dffs=*/false);
  for (const NodeIndex m : walker.visited()) {
    if (nl.type(m) == GateType::Dff) ffs.push_back(nl.dff_position(m));
  }
  std::sort(ffs.begin(), ffs.end());
  return ffs;
}

/// Checks preds and output horizons against per-flip-flop and
/// per-output walks, and the plan horizons of (about)
/// `max_checked_faults` evenly spaced faults against per-fault forward
/// walks crossing flip-flops.
void expect_matches_walks(const Netlist& nl, std::size_t max_checked_faults) {
  const SgraphInfo info = build_sgraph(nl);
  ConeWalker walker(nl);
  for (std::size_t i = 0; i < nl.dff_count(); ++i) {
    const NodeIndex d = nl.gate(nl.dffs()[i]).fanins[0];
    EXPECT_EQ(info.preds[i], walk_support(nl, walker, d))
        << nl.name() << " preds of flip-flop " << i;
  }
  for (std::size_t j = 0; j < nl.output_count(); ++j) {
    std::uint32_t h = 0;
    for (const std::uint32_t u : walk_support(nl, walker, nl.outputs()[j])) {
      h = std::max(h, info.init_depth[u]);
    }
    EXPECT_EQ(info.output_horizon[j], h) << nl.name() << " output " << j;
  }

  const CollapsedFaultList c(nl);
  const SgraphPlan plan = build_sgraph_plan(nl, info, c.faults());
  ASSERT_EQ(plan.horizon.size(), c.size());
  const std::size_t stride =
      std::max<std::size_t>(1, c.size() / max_checked_faults);
  for (std::size_t i = 0; i < c.size(); i += stride) {
    walker.run(ConeDir::Forward, {c.faults()[i].site.node});
    std::uint32_t h = 0;
    for (std::size_t j = 0; j < nl.output_count(); ++j) {
      if (walker.reached(nl.outputs()[j])) {
        h = std::max(h, info.output_horizon[j]);
      }
    }
    EXPECT_EQ(plan.horizon[i], h)
        << nl.name() << " " << fault_name(nl, c.faults()[i]);
  }
}

TEST(SgraphLinearPasses, RosterMatchesWalks) {
  for (const BenchmarkInfo& b : benchmark_roster()) {
    const Netlist nl = make_benchmark(b);
    // Every fault up to s9234.1; a sample above, where one walk per
    // fault would dominate the suite.
    expect_matches_walks(nl, nl.node_count() <= 6000 ? ~std::size_t{0} : 400);
  }
}

TEST(SgraphLinearPasses, AcyclicCircuitsMatchWalks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const SynthSpec spec{"apipe" + std::to_string(seed), 4, 3, 10, 90,
                         CircuitStyle::AcyclicPipeline, seed};
    const Netlist nl = generate_circuit(spec);
    const SgraphPlan plan = build_sgraph_plan(nl, CollapsedFaultList(nl).faults());
    EXPECT_GT(plan.finite_horizon_count(), 0u) << spec.name;
    expect_matches_walks(nl, ~std::size_t{0});
  }
}

// ---------------------------------------------------------------------------
// bench_io regression: feedback netlists may reference signals defined
// later in the file (the parser must resolve forward references both
// through DFF D-pins and through plain gate fanins).
// ---------------------------------------------------------------------------

TEST(SgraphBenchIo, FeedbackReferencesSignalsDefinedLater) {
  const char* text =
      "INPUT(A)\n"
      "OUTPUT(O)\n"
      "Q1 = DFF(D1)\n"      // D1 defined 2 lines later
      "Q2 = DFF(D2)\n"      // D2 defined last
      "D1 = NOR(A, Q2)\n"
      "O = OR(Q1, Q2)\n"
      "D2 = NAND(Q1, A)\n";
  const Netlist nl = parse_bench_string(text, "fwd");
  EXPECT_TRUE(run_lint(nl).clean());
  ASSERT_EQ(nl.dff_count(), 2u);

  const SgraphInfo info = build_sgraph(nl);
  const std::uint32_t p1 = dff_position(nl, nl.find("Q1"));
  const std::uint32_t p2 = dff_position(nl, nl.find("Q2"));
  EXPECT_EQ(info.scc_id[p1], info.scc_id[p2]);
  EXPECT_EQ(info.nontrivial_scc_count, 1u);
  EXPECT_EQ(info.output_horizon[0], kInfDepth);
}

// ---------------------------------------------------------------------------
// Depth soundness against the symbolic true-value machine
// ---------------------------------------------------------------------------

class SgraphDepth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SgraphDepth, SymbolicStateSettlesAtInitDepth) {
  // The semantic claim behind the downgrade: on an acyclic s-graph,
  // flip-flop i's value is a CONSTANT OBDD (independent of the
  // power-up variables) after init_depth[i] frames of binary inputs,
  // and output o's frame value is constant from frame
  // output_horizon[o] on.
  const SynthSpec spec{"depth", 4, 2, 6, 60, CircuitStyle::AcyclicPipeline,
                       GetParam()};
  const Netlist nl = generate_circuit(spec);
  const SgraphInfo info = build_sgraph(nl);
  ASSERT_EQ(info.acyclic_ffs, nl.dff_count()) << "profile must be acyclic";

  Rng rng(GetParam() * 11 + 2);
  const TestSequence seq =
      random_sequence(nl, info.max_finite_init_depth + 3, rng);

  bdd::BddManager mgr;
  const StateVars vars(nl.dff_count());
  SymTrueValueSim sym(nl, mgr, vars);
  sym.reset_symbolic();
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const std::vector<bdd::Bdd> outs = sym.step(seq[t]);
    // Frame index t (0-based, seeded at frame 0): output o is
    // input-only once t >= horizon[o].
    for (std::size_t o = 0; o < outs.size(); ++o) {
      if (t >= info.output_horizon[o]) {
        EXPECT_TRUE(outs[o].is_zero() || outs[o].is_one())
            << "output " << o << " symbolic in frame " << t
            << " (horizon " << info.output_horizon[o] << ")";
      }
    }
    // After t+1 latches, FF i is constant once t+1 >= init_depth[i].
    for (std::size_t i = 0; i < nl.dff_count(); ++i) {
      if (t + 1 >= info.init_depth[i]) {
        EXPECT_TRUE(sym.state()[i].is_zero() || sym.state()[i].is_one())
            << "ff " << i << " symbolic after " << t + 1
            << " frames (depth " << info.init_depth[i] << ")";
      }
    }
  }
}

TEST_P(SgraphDepth, ScoapSeqDepthNeverBelowStructuralInitDepth) {
  // The acyclic profile routes its deepest chain through a dedicated
  // head gate observed only at the chain tail, so the SCOAP sequential
  // depth maximum must reach (and never undercut) the exact structural
  // bound: max seq_depth >= max finite init-depth.
  const SynthSpec spec{"scoap", 5, 3, 8, 80, CircuitStyle::AcyclicPipeline,
                       GetParam() * 17 + 3};
  const Netlist nl = generate_circuit(spec);

  CircuitStats stats = CircuitStats::of(nl);
  const SiteTable sites(nl);
  attach_testability(stats, nl, compute_testability(nl, sites));
  attach_sgraph(stats, nl, build_sgraph(nl));
  ASSERT_TRUE(stats.has_scoap);
  ASSERT_TRUE(stats.has_sgraph);
  EXPECT_EQ(stats.sgraph_acyclic_ffs, nl.dff_count());
  EXPECT_GT(stats.sgraph_max_init_depth, 0u);
  EXPECT_GE(stats.scoap_max_seq_depth, stats.sgraph_max_init_depth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgraphDepth,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Bit-identity: sgraph on vs off, every engine and strategy
// ---------------------------------------------------------------------------

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

SimOptions ample(Strategy s, bool sgraph) {
  SimOptions cfg;
  cfg.strategy = s;
  cfg.node_limit = 1u << 22;
  cfg.sgraph = sgraph;
  return cfg;
}

/// The s-graph pass alone: trimming stays off so a downgrade bug
/// cannot be masked or caused by the trimming pass.
SimOptions sgraph_only(Strategy s) {
  SimOptions cfg = ample(s, true);
  cfg.trim = false;
  return cfg;
}

class SgraphIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SgraphIdentity, PureSymbolicMatchesPlain) {
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 9 + 5);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SymFaultSim plain(nl, c.faults(), s);
    const SymFaultSimResult rp = plain.run(seq);

    HybridFaultSim guided(nl, c.faults(), sgraph_only(s));
    const HybridResult rg = guided.run(seq);
    EXPECT_EQ(rg.fallback_windows, 0u) << to_cstring(s);
    expect_same_result(rp, rg, nl, c.faults(), to_cstring(s));
  }
}

TEST_P(SgraphIdentity, HybridMatchesPlain) {
  const Netlist nl = small_random_circuit(GetParam() + 80);
  Rng rng(GetParam() * 7 + 13);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), ample(s, false));
    const HybridResult rp = plain.run(seq);
    EXPECT_EQ(rp.mot_downgrades, 0u);

    HybridFaultSim guided(nl, c.faults(), ample(s, true));
    const HybridResult rg = guided.run(seq);
    expect_same_result(rp, rg, nl, c.faults(), to_cstring(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SgraphIdentity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SgraphIdentityBench, AcyclicPipelineDowngradesEveryEngine) {
  // On a fully acyclic circuit every surviving rMOT/MOT fault must
  // downgrade once the deepest horizon passes — with verdicts and
  // frames identical to the plain runs, serial and sharded alike.
  const SynthSpec spec{"apipe", 4, 2, 8, 70, CircuitStyle::AcyclicPipeline,
                       21};
  const Netlist nl = generate_circuit(spec);
  Rng rng(77);
  const TestSequence seq = random_sequence(nl, 24, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim plain(nl, c.faults(), ample(s, false));
    const HybridResult rp = plain.run(seq);

    HybridFaultSim guided(nl, c.faults(), ample(s, true));
    const HybridResult rg = guided.run(seq);
    EXPECT_EQ(rg.fallback_windows, 0u) << to_cstring(s);
    expect_same_result(rp, rg, nl, c.faults(), to_cstring(s));
    EXPECT_GT(rg.mot_downgrades, 0u) << to_cstring(s);
    EXPECT_EQ(rp.mot_downgrades, 0u) << to_cstring(s);

    // The plain reference runs neither pass.
    SymFaultSim reference(nl, c.faults(), s);
    expect_same_result(reference.run(seq), rg, nl, c.faults(),
                       to_cstring(s));

    for (std::size_t threads : {2u, 4u}) {
      SimOptions pc = ample(s, true);
      pc.threads = threads;
      pc.chunk_size = 16;
      ParallelSymSim par(nl, c.faults(), pc);
      const HybridResult rr = par.run(seq);
      expect_same_result(rp, rr, nl, c.faults(), to_cstring(s));
      EXPECT_GT(rr.mot_downgrades, 0u)
          << to_cstring(s) << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Plan plumbing
// ---------------------------------------------------------------------------

TEST(SgraphPlumbing, MisalignedPlanIsRejected) {
  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList c(nl);
  SgraphPlan bad;
  bad.horizon.assign(c.size() + 1, 0);

  HybridFaultSim hybrid(nl, c.faults(), ample(Strategy::Mot, true));
  EXPECT_THROW(hybrid.set_sgraph_plan(bad), std::invalid_argument);

  SimOptions pc = ample(Strategy::Mot, true);
  pc.threads = 2;
  ParallelSymSim par(nl, c.faults(), pc);
  EXPECT_THROW(par.set_sgraph_plan(bad), std::invalid_argument);
}

TEST(SgraphPlumbing, SuppliedPlanMatchesSelfBuiltPlan) {
  const SynthSpec spec{"supplied", 4, 2, 6, 60,
                       CircuitStyle::AcyclicPipeline, 9};
  const Netlist nl = generate_circuit(spec);
  Rng rng(31);
  const TestSequence seq = random_sequence(nl, 16, rng);
  const CollapsedFaultList c(nl);
  const SgraphPlan plan = build_sgraph_plan(nl, c.faults());

  for (Strategy s : {Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim self_built(nl, c.faults(), ample(s, true));
    const HybridResult ra = self_built.run(seq);

    HybridFaultSim supplied(nl, c.faults(), ample(s, true));
    supplied.set_sgraph_plan(plan);
    const HybridResult rb = supplied.run(seq);
    expect_same_result(ra, rb, nl, c.faults(), to_cstring(s));
    EXPECT_EQ(ra.mot_downgrades, rb.mot_downgrades);
  }
}

// ---------------------------------------------------------------------------
// Store identity: sgraph is a pure performance knob
// ---------------------------------------------------------------------------

TEST(SgraphStore, FingerprintIgnoresSgraph) {
  SimOptions on;
  on.sgraph = true;
  SimOptions off = on;
  off.sgraph = false;
  EXPECT_EQ(fingerprint_options(on), fingerprint_options(off));
  EXPECT_FALSE(on == off);  // ...but the configurations DO differ
}

TEST(SgraphStore, ManifestRoundTripsSgraph) {
  StoreManifest m;
  m.circuit = "s27";
  m.sequence_length = 4;
  m.segment_lengths = {4};
  for (bool sgraph : {true, false}) {
    m.options.sgraph = sgraph;
    const std::string text = m.to_text();
    EXPECT_NE(text.find(sgraph ? "opt_sgraph 1" : "opt_sgraph 0"),
              std::string::npos);
    const auto parsed = StoreManifest::from_text(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error();
    EXPECT_EQ(parsed->options.sgraph, sgraph);
  }
}

TEST(SgraphStore, LegacyManifestWithoutSgraphLineResumesOff) {
  // Pre-sgraph manifests must load — and must come back with the pass
  // OFF, so the shard partition they checkpointed under is recomputed
  // exactly (no horizon reorder).
  StoreManifest m;
  m.circuit = "s27";
  m.sequence_length = 4;
  m.segment_lengths = {4};
  m.options.sgraph = true;
  std::string text = m.to_text();
  const std::string line = "opt_sgraph 1\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, line.size());
  const auto parsed = StoreManifest::from_text(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_FALSE(parsed->options.sgraph);
}

// ---------------------------------------------------------------------------
// Reporting: stats print order, diagnostics JSON round-trip
// ---------------------------------------------------------------------------

TEST(SgraphStats, PrintOrderIsStable) {
  const Netlist nl = make_benchmark("s27");
  CircuitStats stats = CircuitStats::of(nl);
  const SiteTable sites(nl);
  attach_testability(stats, nl, compute_testability(nl, sites));
  attach_sgraph(stats, nl, build_sgraph(nl));

  const std::string text = stats.to_string();
  const std::size_t scoap_at = text.find("scoap: ");
  const std::size_t sgraph_at = text.find("sgraph: ");
  ASSERT_NE(scoap_at, std::string::npos);
  ASSERT_NE(sgraph_at, std::string::npos);
  EXPECT_LT(scoap_at, sgraph_at) << "sgraph line must follow scoap line";
  EXPECT_NE(text.find("sgraph: SCCs 2 (nontrivial 2), acyclic FFs 0"),
            std::string::npos)
      << text;
}

TEST(SgraphDiagnostics, JsonRoundTripsSgraphIds) {
  const Netlist nl = make_benchmark("s27");
  const SgraphInfo info = build_sgraph(nl);

  DiagnosticReport report("s27");
  report.add(nl, "sgraph.scc", Severity::Note, nl.dffs()[0],
             "nontrivial SCC of 2 flip-flops");
  report.add(nl, "sgraph.depth", Severity::Note, nl.dffs()[1],
             "synchronization depth 2");
  report.add(nl, "sgraph.feedback", Severity::Note, nl.dffs()[2],
             "greedy feedback-set candidate");
  report.add(nl, "sgraph.summary", Severity::Note, kNoNode,
             sgraph_summary(nl, info));

  const auto parsed = DiagnosticReport::from_json(report.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(*parsed, report);
  EXPECT_TRUE(parsed->has("sgraph.scc"));
  EXPECT_TRUE(parsed->has("sgraph.summary"));
}

}  // namespace
}  // namespace motsim
