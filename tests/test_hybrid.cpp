// Hybrid fault simulation: agreement with the pure symbolic simulator
// when space is ample, soundness under space pressure (every claim it
// makes still holds per the brute-force definitions), and fallback
// bookkeeping.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "bench_data/synth_gen.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/pipeline.h"
#include "core/xred.h"
#include "core/sym_fault_sim.h"
#include "faults/collapse.h"
#include "obs/telemetry.h"
#include "sim3/fault_simulator.h"
#include "reference.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace motsim {
namespace {

using testing::ref_mot_detectable;
using testing::ref_rmot_detectable;
using testing::ref_sot_detectable;
using testing::small_random_circuit;

SimOptions ample(Strategy s) {
  SimOptions cfg;
  cfg.strategy = s;
  cfg.node_limit = 1u << 22;  // effectively unlimited
  return cfg;
}

SimOptions tight(Strategy s, std::size_t limit, std::size_t window = 2) {
  SimOptions cfg;
  cfg.strategy = s;
  cfg.node_limit = limit;
  cfg.fallback_frames = window;
  cfg.hard_limit_factor = 2;
  return cfg;
}

class HybridVsPure : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridVsPure, AmpleSpaceMatchesPureSymbolic) {
  const Netlist nl = small_random_circuit(GetParam());
  Rng rng(GetParam() * 5 + 2);
  const TestSequence seq = random_sequence(nl, 8, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SymFaultSim pure(nl, c.faults(), s);
    const auto rp = pure.run(seq);

    HybridFaultSim hybrid(nl, c.faults(), ample(s));
    const auto rh = hybrid.run(seq);

    EXPECT_FALSE(rh.used_fallback);
    EXPECT_EQ(rh.fallback_windows, 0u);
    EXPECT_EQ(rh.three_valued_frames, 0u);
    EXPECT_EQ(rh.detected_count, rp.detected_count) << to_cstring(s);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(is_detected(rh.status[i]), is_detected(rp.status[i]))
          << to_cstring(s) << " " << fault_name(nl, c.faults()[i]);
      if (is_detected(rh.status[i])) {
        EXPECT_EQ(rh.detect_frame[i], rp.detect_frame[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridVsPure,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class HybridSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridSoundness, TightLimitClaimsRemainTrue) {
  // Force heavy fallback with a tiny node limit: whatever the hybrid
  // still detects must be genuinely detectable per the definitions.
  const Netlist nl = small_random_circuit(GetParam());
  if (nl.dff_count() > 5) GTEST_SKIP();
  Rng rng(GetParam() * 11 + 9);
  const TestSequence seq = random_sequence(nl, 6, rng);
  const CollapsedFaultList c(nl);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    HybridFaultSim hybrid(nl, c.faults(), tight(s, 24));
    const auto r = hybrid.run(seq);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (!is_detected(r.status[i])) continue;
      const Fault& f = c.faults()[i];
      bool ok = false;
      switch (s) {
        case Strategy::Sot:
          ok = ref_sot_detectable(nl, f, seq);
          break;
        case Strategy::Rmot:
          ok = ref_rmot_detectable(nl, f, seq);
          break;
        case Strategy::Mot:
          ok = ref_mot_detectable(nl, f, seq);
          break;
      }
      EXPECT_TRUE(ok) << to_cstring(s) << " over-claimed "
                      << fault_name(nl, f) << " in " << nl.name();
    }
  }
}

TEST_P(HybridSoundness, FrameAccountingAddsUp) {
  const Netlist nl = small_random_circuit(GetParam() + 60);
  Rng rng(GetParam() * 3 + 8);
  const TestSequence seq = random_sequence(nl, 10, rng);
  const CollapsedFaultList c(nl);

  HybridFaultSim hybrid(nl, c.faults(), tight(Strategy::Mot, 32, 3));
  const auto r = hybrid.run(seq);
  // Every frame ran in exactly one of the three modes — unless all
  // faults dropped early and the run stopped.
  const std::size_t frames =
      r.symbolic_frames + r.three_valued_frames + r.binary_frames;
  EXPECT_LE(frames, seq.size());
  if (r.detected_count < c.size()) {
    EXPECT_EQ(frames, seq.size());
  }
  if (r.used_fallback) {
    EXPECT_GT(r.fallback_windows, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridSoundness,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Hybrid, FallbackActuallyTriggersOnCounter) {
  // The s208.1-like counter under MOT with the paper's 30k limit stays
  // symbolic; with a very small limit it must fall back and still
  // detect a nonzero set.
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList c(nl);
  Rng rng(77);
  const TestSequence seq = random_sequence(nl, 40, rng);

  HybridFaultSim small_sim(nl, c.faults(), tight(Strategy::Mot, 400, 4));
  const auto rs = small_sim.run(seq);
  EXPECT_TRUE(rs.used_fallback);
  EXPECT_GT(rs.three_valued_frames, 0u);
  EXPECT_GT(rs.symbolic_frames, 0u);

  HybridFaultSim big(nl, c.faults(), ample(Strategy::Mot));
  const auto rb = big.run(seq);
  // The space-pressured run can only be less accurate.
  EXPECT_LE(rs.detected_count, rb.detected_count);
}

TEST(Hybrid, PeakNodesRespectsOrderOfMagnitude) {
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList c(nl);
  Rng rng(78);
  const TestSequence seq = random_sequence(nl, 30, rng);
  HybridFaultSim sim(nl, c.faults(), tight(Strategy::Mot, 1000, 4));
  const auto r = sim.run(seq);
  // Peak is measured after GC at frame boundaries; the hard cap is
  // node_limit * factor during a frame.
  EXPECT_LE(r.peak_live_nodes, 2000u * 2u);
}

TEST(Hybrid, InvalidConfigRejected) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  SimOptions cfg;
  cfg.node_limit = 0;
  EXPECT_THROW(HybridFaultSim(nl, c.faults(), cfg), std::invalid_argument);
  cfg = SimOptions{};
  cfg.fallback_frames = 0;
  EXPECT_THROW(HybridFaultSim(nl, c.faults(), cfg), std::invalid_argument);
}

TEST(Hybrid, InitialStatusSkips) {
  const Netlist nl = make_s27();
  const CollapsedFaultList c(nl);
  HybridFaultSim sim(nl, c.faults(), ample(Strategy::Rmot));
  sim.set_initial_status(
      std::vector<FaultStatus>(c.size(), FaultStatus::XRedundant));
  Rng rng(5);
  const auto r = sim.run(random_sequence(nl, 5, rng));
  EXPECT_EQ(r.detected_count, 0u);
  for (FaultStatus s : r.status) EXPECT_EQ(s, FaultStatus::XRedundant);
}

TEST(Hybrid, ThreeValuedWindowStillDropsFaults) {
  // With limit so small that almost everything runs three-valued, the
  // hybrid should roughly match the plain three-valued detector.
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList c(nl);
  Rng rng(99);
  const TestSequence seq = random_sequence(nl, 30, rng);

  HybridFaultSim sim(nl, c.faults(), tight(Strategy::Mot, 8, 30));
  const auto r = sim.run(seq);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_GT(r.detected_count, 0u);
}


// ---------------------------------------------------------------------------
// Operation-sequence pins: the BDD operations a hybrid MOT run performs
// (and with them its GC timing, space-limit checks and fallback
// windows) are fixed. The constants were recorded from the engine
// before gate evaluation moved onto BddManager::apply_gate; any change
// to the order, number or rooting of BDD operations shows up here.
// ---------------------------------------------------------------------------

struct OpCounts {
  std::size_t fallback_windows = 0;
  std::size_t symbolic_frames = 0;
  std::size_t detected = 0;
  std::uint64_t nodes_created = 0;
  std::uint64_t unique_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_reclaimed_nodes = 0;
  std::uint64_t peak_live_nodes = 0;
};

OpCounts run_counted(const char* circuit, const SimOptions& cfg,
                     std::size_t vectors, std::uint64_t seed) {
  const Netlist nl = make_benchmark(circuit);
  const CollapsedFaultList c(nl);
  Rng rng(seed);
  const TestSequence seq = random_sequence(nl, vectors, rng);
  obs::Telemetry telemetry;
  SimOptions options = cfg;
  options.telemetry = &telemetry;
  HybridFaultSim sim(nl, c.faults(), options);
  const HybridResult r = sim.run(seq);
  obs::MetricsRegistry& m = telemetry.metrics;
  OpCounts out;
  out.fallback_windows = r.fallback_windows;
  out.symbolic_frames = r.symbolic_frames;
  out.detected = r.detected_count;
  out.nodes_created = m.counter("bdd.nodes_created").value();
  out.unique_hits = m.counter("bdd.unique_hits").value();
  out.cache_lookups = m.counter("bdd.apply_cache_lookups").value();
  out.cache_hits = m.counter("bdd.apply_cache_hits").value();
  out.gc_runs = m.counter("bdd.gc_runs").value();
  out.gc_reclaimed_nodes = m.counter("bdd.gc_reclaimed_nodes").value();
  out.peak_live_nodes =
      static_cast<std::uint64_t>(m.gauge("bdd.peak_live_nodes").value());
  return out;
}

TEST(HybridOpSequence, FallbackWindowsAndCountersArePinned) {
  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  cfg.node_limit = 2000;
  const OpCounts got = run_counted("s526", cfg, 120, 526);
  EXPECT_EQ(got.fallback_windows, 14u);
  EXPECT_EQ(got.symbolic_frames, 10u);
  EXPECT_EQ(got.detected, 217u);
  EXPECT_EQ(got.nodes_created, 164627u);
  EXPECT_EQ(got.unique_hits, 76917u);
  EXPECT_EQ(got.cache_lookups, 388183u);
  EXPECT_EQ(got.cache_hits, 130660u);
  EXPECT_EQ(got.gc_runs, 24u);
  EXPECT_EQ(got.gc_reclaimed_nodes, 163226u);
  EXPECT_EQ(got.peak_live_nodes, 15998u);
}

TEST(HybridOpSequence, MidFrameCollectionsArePinned) {
  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  cfg.bdd_auto_gc_floor = 256;
  const OpCounts got = run_counted("s953", cfg, 60, 953);
  // More collections than symbolic frames: automatic GC fired inside
  // frames.
  EXPECT_GT(got.gc_runs, got.symbolic_frames);
  EXPECT_EQ(got.fallback_windows, 6u);
  EXPECT_EQ(got.symbolic_frames, 13u);
  EXPECT_EQ(got.detected, 82u);
  EXPECT_EQ(got.nodes_created, 903136u);
  EXPECT_EQ(got.unique_hits, 812359u);
  EXPECT_EQ(got.cache_lookups, 2571203u);
  EXPECT_EQ(got.cache_hits, 840279u);
  EXPECT_EQ(got.gc_runs, 114u);
  EXPECT_EQ(got.gc_reclaimed_nodes, 902616u);
  EXPECT_EQ(got.peak_live_nodes, 107859u);
}

// ---------------------------------------------------------------------------
// Settled hand-off: once every state function of both machines is a
// constant and only binary inputs remain, the run finishes on the
// three-valued engine. The pure symbolic simulator is the oracle: the
// hand-off must not move a single verdict or detection frame.
// ---------------------------------------------------------------------------

Netlist handoff_circuit(const std::string& name) {
  if (name == "apipe") {
    return generate_circuit(SynthSpec{"apipe", 4, 2, 8, 70,
                                      CircuitStyle::AcyclicPipeline, 21});
  }
  return make_benchmark(name);
}

class HybridBinaryHandOff : public ::testing::TestWithParam<const char*> {};

TEST_P(HybridBinaryHandOff, MatchesPureSymbolic) {
  const Netlist nl = handoff_circuit(GetParam());
  const CollapsedFaultList c(nl);
  Rng rng(31);
  const TestSequence seq = random_sequence(nl, 40, rng);

  for (Strategy s : {Strategy::Sot, Strategy::Rmot, Strategy::Mot}) {
    SymFaultSim pure(nl, c.faults(), s);
    const SymFaultSimResult rp = pure.run(seq);
    for (Sim3Backend backend : {Sim3Backend::Event, Sim3Backend::BitPar}) {
      for (const bool trim : {false, true}) {
        for (const bool sgraph : {false, true}) {
          SimOptions cfg = ample(s);
          cfg.sim3_backend = backend;
          cfg.trim = trim;
          cfg.sgraph = sgraph;
          HybridFaultSim hybrid(nl, c.faults(), cfg);
          const HybridResult rh = hybrid.run(seq);
          const std::string what = std::string(to_cstring(s)) + " " +
                                   to_cstring(backend) +
                                   (trim ? " trim" : "") +
                                   (sgraph ? " sgraph" : "");
          EXPECT_EQ(rh.fallback_windows, 0u) << what;
          // The hand-off really fired, so the comparison is not vacuous.
          EXPECT_GT(rh.binary_frames, 0u) << what;
          EXPECT_EQ(rh.symbolic_frames + rh.binary_frames, seq.size())
              << what;
          EXPECT_EQ(rh.detected_count, rp.detected_count) << what;
          EXPECT_EQ(rh.status, rp.status) << what;
          EXPECT_EQ(rh.detect_frame, rp.detect_frame) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, HybridBinaryHandOff,
                         ::testing::Values("s386", "s713", "s820", "s1488",
                                           "apipe"));

TEST(HybridBinaryHandOff, NeverFiresOnCircuitsThatDoNotSettle) {
  // Counter-like state that no input sequence pins down keeps
  // depending on the state variables: these jobs stay symbolic.
  for (const char* name : {"s208.1", "s510"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList c(nl);
    Rng rng(32);
    const TestSequence seq = random_sequence(nl, 40, rng);
    HybridFaultSim sim(nl, c.faults(), ample(Strategy::Mot));
    const HybridResult r = sim.run(seq);
    EXPECT_EQ(r.binary_frames, 0u) << name;
    EXPECT_EQ(r.symbolic_frames, seq.size()) << name;
  }
}

TEST(HybridBinaryHandOff, LaterXInputStillRejected) {
  const Netlist nl = make_benchmark("s1488");
  const CollapsedFaultList c(nl);
  Rng rng(33);
  TestSequence seq = random_sequence(nl, 20, rng);
  HybridFaultSim clean(nl, c.faults(), ample(Strategy::Mot));
  const HybridResult r = clean.run(seq);
  ASSERT_GT(r.binary_frames, 0u);
  ASSERT_LT(r.symbolic_frames, 15u);  // settled before the X frame

  seq[15][0] = Val3::X;
  HybridFaultSim sim(nl, c.faults(), ample(Strategy::Mot));
  EXPECT_THROW((void)sim.run(seq), std::invalid_argument);
}

class RecordingSink final : public CheckpointSink {
 public:
  void on_checkpoint(const ChunkCheckpoint& ck) override {
    records.push_back(ck);
  }
  std::vector<ChunkCheckpoint> records;
};

void expect_same_record(const ChunkCheckpoint& a, const ChunkCheckpoint& b,
                        const std::string& what) {
  EXPECT_EQ(a.chunk, b.chunk) << what;
  EXPECT_EQ(a.frame, b.frame) << what;
  EXPECT_EQ(a.in_window, b.in_window) << what;
  EXPECT_EQ(a.window_left, b.window_left) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.good_state, b.good_state) << what;
  EXPECT_EQ(a.fault_index, b.fault_index) << what;
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.detect_frame, b.detect_frame) << what;
  EXPECT_EQ(a.diff, b.diff) << what;
}

TEST(HybridBinaryHandOff, CheckpointResumeAcrossBinaryMode) {
  const Netlist nl = make_benchmark("s1488");
  const CollapsedFaultList c(nl);
  Rng rng(34);
  const TestSequence seq = random_sequence(nl, 40, rng);
  SimOptions cfg = ample(Strategy::Mot);
  cfg.checkpoint_interval = 8;

  RecordingSink full;
  HybridFaultSim sim(nl, c.faults(), cfg);
  sim.set_checkpoint_sink(&full);
  const HybridResult r = sim.run(seq);
  ASSERT_EQ(r.fallback_windows, 0u);
  ASSERT_GT(r.binary_frames, 0u);
  // Without windows the symbolic frames are exactly the ones before
  // the hand-off.
  const std::size_t handoff = r.symbolic_frames;
  std::size_t after = 0;
  for (const ChunkCheckpoint& ck : full.records) {
    if (ck.frame < handoff) continue;
    ++after;
    EXPECT_FALSE(ck.in_window) << "frame " << ck.frame;
    EXPECT_EQ(ck.window_left, 0u) << "frame " << ck.frame;
  }
  ASSERT_GE(after, 2u);  // boundaries inside the binary mode were written

  for (std::size_t k = 0; k < full.records.size(); ++k) {
    const std::string what = "resumed at frame " +
                             std::to_string(full.records[k].frame);
    RecordingSink tail;
    HybridFaultSim resumed(nl, c.faults(), cfg);
    resumed.set_resume(full.records[k]);
    resumed.set_checkpoint_sink(&tail);
    const HybridResult rr = resumed.run(seq);
    EXPECT_EQ(rr.status, r.status) << what;
    EXPECT_EQ(rr.detect_frame, r.detect_frame) << what;
    ASSERT_EQ(tail.records.size(), full.records.size() - k - 1) << what;
    for (std::size_t j = 0; j < tail.records.size(); ++j) {
      expect_same_record(tail.records[j], full.records[k + 1 + j], what);
    }
  }
}

// ---------------------------------------------------------------------------
// X01-exact hand-off drop: faults the three-valued stage simulated
// exactly past the hand-off frame stay out of the binary session, with
// unchanged verdicts and frames (docs/ALGORITHMS.md)
// ---------------------------------------------------------------------------

struct ExactCase {
  const char* circuit;
  std::uint64_t seed;
  Strategy strategy;
  std::size_t node_limit;
  bool expect_drops;    ///< the drop must fire
  bool expect_windows;  ///< fallback windows must open
  bool sharded;         ///< also compare a 4-thread run
};

class X01ExactHandOff : public ::testing::TestWithParam<ExactCase> {};

TEST_P(X01ExactHandOff, PipelineMatchesHandOffWithoutTheVector) {
  const ExactCase& k = GetParam();
  const Netlist nl = make_benchmark(k.circuit);
  const CollapsedFaultList c(nl);
  Rng rng(k.seed);
  const TestSequence seq = random_sequence(nl, 200, rng);
  SimOptions opts;
  opts.strategy = k.strategy;
  opts.node_limit = k.node_limit;

  // The pipeline's stages 1 and 2 by hand.
  std::vector<FaultStatus> status = run_id_x_red(nl, seq).classify(c.faults());
  const std::unique_ptr<FaultSimulator3> x01 =
      make_fault_simulator3(opts.sim3_backend, nl, c.faults());
  x01->set_initial_status(status);
  const FaultSim3Result r3 = x01->run(seq);
  std::vector<FaultStatus> leftover = r3.status;
  for (FaultStatus& st : leftover) {
    if (st == FaultStatus::XRedundant) st = FaultStatus::Undetected;
  }

  HybridFaultSim plain(nl, c.faults(), opts);
  plain.set_initial_status(leftover);
  const HybridResult rp = plain.run(seq);
  HybridFaultSim dropping(nl, c.faults(), opts);
  dropping.set_initial_status(leftover);
  dropping.set_settled_drops(r3.exact_from);
  const HybridResult rd = dropping.run(seq);

  EXPECT_EQ(rp.x01_exact_drops, 0u);
  EXPECT_EQ(rd.status, rp.status);
  EXPECT_EQ(rd.detect_frame, rp.detect_frame);
  // Symbolic and window modes never consult the vector.
  EXPECT_EQ(rd.symbolic_frames, rp.symbolic_frames);
  EXPECT_EQ(rd.three_valued_frames, rp.three_valued_frames);
  EXPECT_EQ(rd.fallback_windows, rp.fallback_windows);
  if (k.expect_drops) {
    EXPECT_GT(rd.x01_exact_drops, 0u);
  }
  if (k.expect_windows) {
    EXPECT_GT(rp.fallback_windows, 0u);
  }

  // run_pipeline passes the vector; its merged verdicts must equal the
  // merge of the stages above without it.
  for (const std::size_t threads : {1u, 4u}) {
    if (threads != 1 && !k.sharded) continue;
    SimOptions po = opts;
    po.threads = threads;
    const PipelineResult pr = run_pipeline(nl, c.faults(), seq, po);
    std::vector<FaultStatus> merged = r3.status;
    std::vector<std::uint32_t> frames = r3.detect_frame;
    HybridResult rs = rp;
    if (threads != 1) {
      ParallelSymSim sharded(nl, c.faults(), po);
      sharded.set_initial_status(leftover);
      rs = sharded.run(seq);
    }
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (rs.detect_frame[i] != 0) {
        merged[i] = rs.status[i];
        frames[i] = rs.detect_frame[i];
      }
    }
    EXPECT_EQ(pr.status, merged) << "threads=" << threads;
    EXPECT_EQ(pr.detect_frame, frames) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, X01ExactHandOff,
    // s953 runs serially only: its sharded run takes seconds.
    ::testing::Values(
        ExactCase{"s713", 1, Strategy::Mot, 30000, true, false, true},
        ExactCase{"s1488", 1, Strategy::Mot, 30000, true, false, true},
        ExactCase{"s1494", 1, Strategy::Mot, 30000, true, false, true},
        ExactCase{"s953", 8, Strategy::Mot, 30000, false, true, false},
        ExactCase{"s526", 2, Strategy::Rmot, 2000, false, true, true}));

TEST(X01ExactHandOff, DropsOnlyFaultsExactByTheHandOffFrame) {
  // q <- q XOR q is the constant 0 symbolically but X forever in
  // three-valued logic, so the hybrid settles after frame 1 while X01
  // never does. Input a stuck-at-1 shows at o = q | a once a = 0, which
  // only the binary session sees: detected at frame 3.
  Netlist nl("xorself");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex q = nl.add_dff(kNoNode, "q");
  nl.set_fanins(q, {nl.add_gate(GateType::Xor,
                                {q, nl.add_gate(GateType::Buf, {q}, "q2")},
                                "dq")});
  nl.mark_output(nl.add_gate(GateType::Or, {q, a}, "o"));
  nl.finalize();
  const std::vector<Fault> faults{Fault{FaultSite{a, kStemPin}, true}};
  const TestSequence seq{{Val3::One}, {Val3::One}, {Val3::Zero}, {Val3::Zero}};

  const std::unique_ptr<FaultSimulator3> x01 =
      make_fault_simulator3(default_sim3_backend(), nl, faults);
  const FaultSim3Result r3 = x01->run(seq);
  EXPECT_EQ(r3.status[0], FaultStatus::Undetected);
  EXPECT_EQ(r3.exact_from[0], 0u);

  // The hand-off fires after frame 1: a fault is left out only when
  // its exact_from is nonzero and at most 1.
  for (const std::uint32_t k : {0u, 1u, 2u}) {
    HybridFaultSim hybrid(nl, faults, ample(Strategy::Mot));
    hybrid.set_settled_drops({k});
    const HybridResult r = hybrid.run(seq);
    EXPECT_EQ(r.symbolic_frames, 1u);
    EXPECT_EQ(r.binary_frames, k == 1 ? 0u : 2u);  // frames 2 and 3
    EXPECT_EQ(r.x01_exact_drops, k == 1 ? 1u : 0u) << "exact_from " << k;
    EXPECT_EQ(r.detect_frame[0], k == 1 ? 0u : 3u) << "exact_from " << k;
  }

  SimOptions opts = ample(Strategy::Mot);
  const PipelineResult pr = run_pipeline(nl, faults, seq, opts);
  EXPECT_EQ(pr.status[0], FaultStatus::DetectedMot);
  EXPECT_EQ(pr.detect_frame[0], 3u);
}

// ---------------------------------------------------------------------------
// X-redundant settled drop: faults ID_X-red flagged X-redundant over a
// fault-free run already settled at the hand-off, whose state matches
// the fault-free one, stay out of the binary session (docs/ALGORITHMS.md)
// ---------------------------------------------------------------------------

TEST(XRedSettledHandOff, RosterVerdictsUnchanged) {
  struct Case {
    const char* circuit;
    Strategy strategy;
    bool expect_drops;
  };
  for (const Case& k : {Case{"s713", Strategy::Mot, false},
                        Case{"s1488", Strategy::Mot, true},
                        Case{"s1494", Strategy::Mot, true},
                        Case{"s298", Strategy::Sot, false}}) {
    const Netlist nl = make_benchmark(k.circuit);
    const CollapsedFaultList c(nl);
    Rng rng(1);
    const TestSequence seq = random_sequence(nl, 200, rng);
    SimOptions opts;
    opts.strategy = k.strategy;

    // The pipeline's stages 1 and 2 by hand.
    const XRedResult xr = run_id_x_red(nl, seq);
    const std::vector<FaultStatus> status = xr.classify(c.faults());
    const std::unique_ptr<FaultSimulator3> x01 =
        make_fault_simulator3(opts.sim3_backend, nl, c.faults());
    x01->set_initial_status(status);
    const FaultSim3Result r3 = x01->run(seq);
    std::vector<FaultStatus> leftover = r3.status;
    std::vector<std::uint32_t> xred_from(c.size(), 0);
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (leftover[i] != FaultStatus::XRedundant) continue;
      leftover[i] = FaultStatus::Undetected;
      xred_from[i] = xr.settled_from();
    }

    HybridFaultSim plain(nl, c.faults(), opts);
    plain.set_initial_status(leftover);
    plain.set_settled_drops(r3.exact_from);
    const HybridResult rp = plain.run(seq);
    HybridFaultSim dropping(nl, c.faults(), opts);
    dropping.set_initial_status(leftover);
    dropping.set_settled_drops(r3.exact_from, xred_from);
    const HybridResult rd = dropping.run(seq);
    EXPECT_EQ(rp.xred_settled_drops, 0u);
    EXPECT_EQ(rd.status, rp.status) << k.circuit;
    EXPECT_EQ(rd.detect_frame, rp.detect_frame) << k.circuit;
    EXPECT_EQ(rd.x01_exact_drops, rp.x01_exact_drops) << k.circuit;
    EXPECT_EQ(rd.symbolic_frames, rp.symbolic_frames) << k.circuit;
    if (k.expect_drops) {
      EXPECT_GT(rd.xred_settled_drops, 0u) << k.circuit;
      EXPECT_LT(rd.binary_frames, rp.binary_frames) << k.circuit;
    }

    // Sharded: every shard gets its slice of both vectors.
    SimOptions po = opts;
    po.threads = 4;
    ParallelSymSim sharded(nl, c.faults(), po);
    sharded.set_initial_status(leftover);
    sharded.set_settled_drops(r3.exact_from, xred_from);
    const HybridResult rs = sharded.run(seq);
    EXPECT_EQ(rs.status, rp.status) << k.circuit;
    EXPECT_EQ(rs.detect_frame, rp.detect_frame) << k.circuit;
    if (k.expect_drops) {
      EXPECT_GT(rs.xred_settled_drops, 0u) << k.circuit;
    }
  }
}

/// Inputs a, b, c. q <- a, and sib = XNOR(q, BUF(q)) AND b is the
/// constant 1 symbolically in frame 1 (b = 1 there) but {X, 0} to
/// ID_X-red, so input c's only path g = AND(c, sib) is unobservable
/// to it (OB = 0): both c faults are X-redundant. d <- g, o = BUF(d).
Netlist blocked_by_an_early_x() {
  Netlist nl("early_x");
  const NodeIndex a = nl.add_input("a");
  const NodeIndex b = nl.add_input("b");
  const NodeIndex c = nl.add_input("c");
  const NodeIndex q = nl.add_dff(a, "q");
  const NodeIndex same = nl.add_gate(
      GateType::Xnor, {q, nl.add_gate(GateType::Buf, {q}, "q2")}, "same");
  const NodeIndex sib = nl.add_gate(GateType::And, {same, b}, "sib");
  const NodeIndex d =
      nl.add_dff(nl.add_gate(GateType::And, {c, sib}, "g"), "d");
  nl.mark_output(nl.add_gate(GateType::Buf, {d}, "o"));
  nl.finalize();
  return nl;
}

TEST(XRedSettledHandOff, KeepsAnXRedundantFaultWithADivergence) {
  // Frame 1 (b = 1, c = 0) settles both machines symbolically and
  // ID_X-red's three-valued one (q = a, d = 0), so the hand-off fires
  // after frame 1 with settled_from = 1. c stuck-at-1 already pushed
  // g = 1 into d there: its divergence is not empty, o shows it in
  // frame 2, and dropping it would lose that detection. c stuck-at-0
  // never diverges (sib = 0 from frame 2 on) and is dropped.
  const Netlist nl = blocked_by_an_early_x();
  const NodeIndex c = nl.inputs()[2];
  const std::vector<Fault> faults{Fault{FaultSite{c, kStemPin}, true},
                                  Fault{FaultSite{c, kStemPin}, false}};
  const TestSequence seq{{Val3::Zero, Val3::One, Val3::Zero},
                         {Val3::One, Val3::Zero, Val3::Zero},
                         {Val3::Zero, Val3::Zero, Val3::One}};
  const XRedResult xr = run_id_x_red(nl, seq);
  EXPECT_EQ(xr.settled_from(), 1u);
  EXPECT_TRUE(xr.is_x_redundant(faults[0]));
  EXPECT_TRUE(xr.is_x_redundant(faults[1]));

  for (const bool with_xred : {false, true}) {
    HybridFaultSim hybrid(nl, faults, ample(Strategy::Mot));
    if (with_xred) hybrid.set_settled_drops({}, {1, 1});
    const HybridResult r = hybrid.run(seq);
    EXPECT_EQ(r.symbolic_frames, 1u);
    EXPECT_EQ(r.xred_settled_drops, with_xred ? 1u : 0u);
    EXPECT_EQ(r.binary_frames, with_xred ? 1u : 2u);
    EXPECT_EQ(r.detect_frame[0], 2u) << "with_xred " << with_xred;
    EXPECT_EQ(r.detect_frame[1], 0u) << "with_xred " << with_xred;
  }

  // A later settling point keeps both faults in the session.
  HybridFaultSim late(nl, faults, ample(Strategy::Mot));
  late.set_settled_drops({}, {2, 2});
  EXPECT_EQ(late.run(seq).xred_settled_drops, 0u);

  const PipelineResult pr =
      run_pipeline(nl, faults, seq, ample(Strategy::Mot));
  EXPECT_EQ(pr.x_redundant, 2u);
  EXPECT_EQ(pr.detect_frame[0], 2u);
  EXPECT_EQ(pr.status[1], FaultStatus::XRedundant);
}

TEST(XRedSettledHandOff, SettledFromTracksTheLastXInput) {
  const Netlist nl = blocked_by_an_early_x();
  TestSequence seq{{Val3::Zero, Val3::One, Val3::Zero},
                   {Val3::One, Val3::Zero, Val3::Zero},
                   {Val3::Zero, Val3::Zero, Val3::One},
                   {Val3::Zero, Val3::Zero, Val3::One}};
  EXPECT_EQ(run_id_x_red(nl, seq).settled_from(), 1u);
  // An X on a is latched into q: frame 3 leaves an X state, frame 4
  // clears it.
  seq[2][0] = Val3::X;
  EXPECT_EQ(run_id_x_red(nl, seq).settled_from(), 4u);
  // An X in the last vector leaves no settled suffix.
  seq[3][1] = Val3::X;
  EXPECT_EQ(run_id_x_red(nl, seq).settled_from(), 0u);
}

TEST(X01ExactHandOff, MisalignedVectorIsRejected) {
  const Netlist nl = make_benchmark("s27");
  const CollapsedFaultList c(nl);
  HybridFaultSim hybrid(nl, c.faults(), ample(Strategy::Mot));
  EXPECT_THROW(hybrid.set_settled_drops(std::vector<std::uint32_t>(1, 0)),
               std::invalid_argument);
  EXPECT_THROW(hybrid.set_settled_drops({}, std::vector<std::uint32_t>(1, 0)),
               std::invalid_argument);
  SimOptions pc = ample(Strategy::Mot);
  pc.threads = 2;
  ParallelSymSim par(nl, c.faults(), pc);
  EXPECT_THROW(par.set_settled_drops(std::vector<std::uint32_t>(1, 0)),
               std::invalid_argument);
  EXPECT_THROW(par.set_settled_drops({}, std::vector<std::uint32_t>(1, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace motsim
