// The fault-sharded parallel symbolic driver (core/parallel_sym_sim)
// and its supporting ThreadPool: determinism across thread counts
// (including runs that force three-valued fallback windows), agreement
// with the serial engine, merge bookkeeping, and the serialized
// progress callbacks.
//
// tools/run_tsan.sh runs exactly this binary (plus test_options) under
// ThreadSanitizer; keep every test here TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "bench_data/registry.h"
#include "bench_data/s27.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace motsim {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.wait_idle();  // idle pool: returns immediately
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ZeroThreadsPromotedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true); });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(counter.load(), 20);
}

// ---------------------------------------------------------------------------
// ParallelSymSim
// ---------------------------------------------------------------------------

HybridResult run_sharded(const Netlist& nl, const std::vector<Fault>& faults,
                         const TestSequence& seq, std::size_t threads,
                         std::size_t node_limit = 30000,
                         std::size_t chunk_size = 0,
                         ProgressSink* sink = nullptr) {
  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  cfg.node_limit = node_limit;
  cfg.threads = threads;
  cfg.chunk_size = chunk_size;
  ParallelSymSim sim(nl, faults, cfg);
  if (sink != nullptr) sim.set_progress(sink);
  return sim.run(seq);
}

TEST(ParallelSymSim, MatchesSerialEngineWithoutFallback) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(7);
  const TestSequence seq = random_sequence(nl, 40, rng);

  SimOptions hc;
  hc.strategy = Strategy::Mot;
  HybridFaultSim serial(nl, faults.faults(), hc);
  const HybridResult rs = serial.run(seq);
  ASSERT_FALSE(rs.used_fallback) << "raise node_limit: this test needs a "
                                    "fallback-free serial baseline";

  const HybridResult rp = run_sharded(nl, faults.faults(), seq, 4);
  EXPECT_FALSE(rp.used_fallback);
  EXPECT_EQ(rp.status, rs.status);
  EXPECT_EQ(rp.detect_frame, rs.detect_frame);
  EXPECT_EQ(rp.detected_count, rs.detected_count);
}

TEST(ParallelSymSim, BitIdenticalAcrossThreadCounts) {
  // s27 plus three synthetic roster circuits, per the determinism
  // contract: thread count must never influence any per-fault result.
  for (const char* name : {"s27", "s208.1", "s298", "s344"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(13);
    const TestSequence seq = random_sequence(nl, 32, rng);

    const HybridResult r1 = run_sharded(nl, faults.faults(), seq, 1);
    for (std::size_t threads : {2u, 4u, 8u}) {
      const HybridResult rn = run_sharded(nl, faults.faults(), seq, threads);
      EXPECT_EQ(rn.status, r1.status) << name << " @" << threads;
      EXPECT_EQ(rn.detect_frame, r1.detect_frame) << name << " @" << threads;
      EXPECT_EQ(rn.detected_count, r1.detected_count);
      EXPECT_EQ(rn.fallback_windows, r1.fallback_windows);
      EXPECT_EQ(rn.symbolic_frames, r1.symbolic_frames);
      EXPECT_EQ(rn.three_valued_frames, r1.three_valued_frames);
      EXPECT_EQ(rn.used_fallback, r1.used_fallback);
    }
  }
}

TEST(ParallelSymSim, BitIdenticalAcrossThreadCountsUnderForcedFallback) {
  // A tiny node limit forces three-valued windows in (nearly) every
  // shard; the window schedule is per shard and the partition is
  // thread-count-independent, so results must still match exactly.
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(17);
  const TestSequence seq = random_sequence(nl, 48, rng);

  const HybridResult r1 =
      run_sharded(nl, faults.faults(), seq, 1, /*node_limit=*/150);
  ASSERT_TRUE(r1.used_fallback) << "node_limit=150 was expected to force "
                                   "fallback windows";
  for (std::size_t threads : {2u, 4u, 8u}) {
    const HybridResult rn =
        run_sharded(nl, faults.faults(), seq, threads, /*node_limit=*/150);
    EXPECT_EQ(rn.status, r1.status) << "@" << threads;
    EXPECT_EQ(rn.detect_frame, r1.detect_frame) << "@" << threads;
    EXPECT_EQ(rn.fallback_windows, r1.fallback_windows) << "@" << threads;
    EXPECT_EQ(rn.symbolic_frames, r1.symbolic_frames) << "@" << threads;
    EXPECT_EQ(rn.three_valued_frames, r1.three_valued_frames)
        << "@" << threads;
  }
}

TEST(ParallelSymSim, ChunkSizeIrrelevantWithoutFallback) {
  // Without memory pressure a fault's outcome is independent of its
  // shard-mates, so the partition granularity cannot matter either.
  const Netlist nl = make_benchmark("s344");
  const CollapsedFaultList faults(nl);
  Rng rng(19);
  const TestSequence seq = random_sequence(nl, 32, rng);

  // Generous limit: the test's premise is that no shard falls back.
  const HybridResult a =
      run_sharded(nl, faults.faults(), seq, 4, 1'000'000, /*chunk_size=*/16);
  const HybridResult b =
      run_sharded(nl, faults.faults(), seq, 4, 1'000'000, /*chunk_size=*/64);
  ASSERT_FALSE(a.used_fallback);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.detect_frame, b.detect_frame);
}

TEST(ParallelSymSim, RespectsInitialStatusAndMergesCounters) {
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList faults(nl);
  Rng rng(23);
  const TestSequence seq = random_sequence(nl, 24, rng);

  // Pre-classify every second fault; the driver must leave those
  // untouched and simulate only the rest.
  std::vector<FaultStatus> initial(faults.size(), FaultStatus::Undetected);
  for (std::size_t i = 0; i < initial.size(); i += 2) {
    initial[i] = FaultStatus::DetectedSim3;
  }

  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  cfg.threads = 4;
  cfg.chunk_size = 8;
  ParallelSymSim sim(nl, faults.faults(), cfg);
  sim.set_initial_status(initial);
  const HybridResult r = sim.run(seq);

  std::size_t newly_detected = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (initial[i] == FaultStatus::DetectedSim3) {
      EXPECT_EQ(r.status[i], FaultStatus::DetectedSim3);
      EXPECT_EQ(r.detect_frame[i], 0u);
    } else if (is_detected(r.status[i])) {
      ++newly_detected;
      EXPECT_GT(r.detect_frame[i], 0u);
      EXPECT_LE(r.detect_frame[i], seq.size());
    }
  }
  EXPECT_EQ(r.detected_count, newly_detected);
  EXPECT_GT(r.peak_live_nodes, 0u);
  // Every live shard walks the whole sequence, each frame in one of
  // the three modes (or drops all faults early); summed frame counters
  // reflect the shard count.
  EXPECT_GE(r.symbolic_frames + r.three_valued_frames + r.binary_frames,
            seq.size());
}

TEST(ParallelSymSim, AllFaultsPreclassifiedIsANoop) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  std::vector<FaultStatus> initial(faults.size(), FaultStatus::DetectedSim3);
  SimOptions cfg;
  cfg.threads = 4;
  ParallelSymSim sim(nl, faults.faults(), cfg);
  sim.set_initial_status(initial);
  const HybridResult r = sim.run(sequence_from_strings({"0000", "1111"}));
  EXPECT_EQ(r.status, initial);
  EXPECT_EQ(r.detected_count, 0u);
  EXPECT_EQ(r.symbolic_frames, 0u);
}

TEST(ParallelSymSim, RejectsBadConfigAndWrongStatusSize) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  SimOptions bad;
  bad.node_limit = 0;
  EXPECT_THROW(ParallelSymSim(nl, faults.faults(), bad),
               std::invalid_argument);

  ParallelSymSim sim(nl, faults.faults(), {});
  EXPECT_THROW(sim.set_initial_status({FaultStatus::Undetected}),
               std::invalid_argument);
}

// Collects every callback; ParallelSymSim serializes them, so plain
// members suffice.
class RecordingSink final : public ProgressSink {
 public:
  void on_frame(std::size_t frame, std::size_t, std::size_t) override {
    ++frames;
    last_frame = std::max(last_frame, frame);
  }
  void on_fallback_window(std::size_t, std::size_t) override { ++windows; }
  void on_fault_detected(std::size_t fault_index, std::uint32_t frame) override {
    detected.insert(fault_index);
    EXPECT_GT(frame, 0u);
  }

  std::size_t frames = 0;
  std::size_t last_frame = 0;
  std::size_t windows = 0;
  std::set<std::size_t> detected;
};

TEST(ParallelSymSim, ProgressCallbacksUseGlobalFaultIndices) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(29);
  const TestSequence seq = random_sequence(nl, 32, rng);

  RecordingSink sink;
  const HybridResult r = run_sharded(nl, faults.faults(), seq, 4, 30000,
                                     /*chunk_size=*/16, &sink);

  // One on_fault_detected per detected fault, reported with the
  // caller's (global) index.
  EXPECT_EQ(sink.detected.size(), r.detected_count);
  for (std::size_t g : sink.detected) {
    ASSERT_LT(g, faults.size());
    EXPECT_TRUE(is_detected(r.status[g]));
  }
  // Each shard reports its frames; at least one full pass happened and
  // nobody reported beyond the sequence end.
  EXPECT_GE(sink.frames, 1u);
  EXPECT_LE(sink.last_frame, seq.size());
  EXPECT_EQ(sink.windows, r.fallback_windows);
}

// ---------------------------------------------------------------------------
// run_pipeline threads knob
// ---------------------------------------------------------------------------

// Circuits with at most 8 flip-flops run their symbolic stage on the
// serial explicit-state engine whatever `threads` says, so these tests
// use larger circuits to reach ParallelSymSim.

TEST(PipelineThreads, ShardedStageMatchesSerialOnRegistryCircuits) {
  for (const char* name : {"s298", "s344", "s713"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(31);
    const TestSequence seq = random_sequence(nl, 40, rng);

    SimOptions serial;
    serial.strategy = Strategy::Mot;
    const PipelineResult r1 = run_pipeline(nl, faults.faults(), seq, serial);
    ASSERT_FALSE(r1.explicit_state) << name;
    ASSERT_FALSE(r1.used_fallback) << name;

    for (std::size_t threads : {2u, 4u, 8u}) {
      SimOptions sharded = serial;
      sharded.threads = threads;
      const PipelineResult rn =
          run_pipeline(nl, faults.faults(), seq, sharded);
      EXPECT_EQ(rn.status, r1.status) << name << " @" << threads;
      EXPECT_EQ(rn.detect_frame, r1.detect_frame) << name << " @" << threads;
      EXPECT_EQ(rn.detected_symbolic, r1.detected_symbolic);
    }
  }
}

TEST(PipelineThreads, ThreadsZeroUsesHardwareDefault) {
  const Netlist nl = make_benchmark("s298");
  const CollapsedFaultList faults(nl);
  Rng rng(37);
  const TestSequence seq = random_sequence(nl, 24, rng);

  SimOptions serial;
  SimOptions all_cores;
  all_cores.threads = 0;
  const PipelineResult r1 = run_pipeline(nl, faults.faults(), seq, serial);
  const PipelineResult r0 = run_pipeline(nl, faults.faults(), seq, all_cores);
  ASSERT_FALSE(r0.explicit_state);
  EXPECT_EQ(r0.status, r1.status);
  EXPECT_EQ(r0.detect_frame, r1.detect_frame);
}

}  // namespace
}  // namespace motsim
