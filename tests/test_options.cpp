// The run configuration SimOptions (core/options.h): validation, the
// paper-protocol defaults, the derived BDD settings, the entry checks
// of every engine, and the Expected error carrier.

#include <gtest/gtest.h>

#include "bench_data/s27.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/parallel_sym_sim.h"
#include "core/pipeline.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/expected.h"
#include "util/rng.h"

namespace motsim {
namespace {

// ---------------------------------------------------------------------------
// Expected
// ---------------------------------------------------------------------------

TEST(Expected, ValueState) {
  Expected<int, std::string> e(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(static_cast<bool>(e));
  EXPECT_EQ(*e, 7);
  EXPECT_EQ(e.value_or(9), 7);
}

TEST(Expected, ErrorState) {
  Expected<int, std::string> e = make_unexpected(std::string("boom"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "boom");
  EXPECT_EQ(e.value_or(9), 9);
  EXPECT_THROW((void)e.value(), std::logic_error);
}

// ---------------------------------------------------------------------------
// SimOptions::validate
// ---------------------------------------------------------------------------

TEST(SimOptions, DefaultsAreValid) {
  const SimOptions o;
  const auto checked = o.validate();
  ASSERT_TRUE(checked.has_value()) << checked.error();
  EXPECT_EQ(*checked, o);  // no normalization today
}

TEST(SimOptions, RejectsZeroLimits) {
  SimOptions o;
  o.node_limit = 0;
  EXPECT_FALSE(o.validate().has_value());

  o = SimOptions{};
  o.fallback_frames = 0;
  EXPECT_FALSE(o.validate().has_value());

  o = SimOptions{};
  o.hard_limit_factor = 0;
  EXPECT_FALSE(o.validate().has_value());
}

TEST(SimOptions, RejectsAbsurdThreadCounts) {
  SimOptions o;
  o.threads = 1025;
  const auto checked = o.validate();
  ASSERT_FALSE(checked.has_value());
  EXPECT_NE(checked.error().find("threads"), std::string::npos);

  o.threads = 0;  // 0 is valid: one worker per hardware thread
  EXPECT_TRUE(o.validate().has_value());
}

TEST(SimOptions, RejectsBadBddTuning) {
  SimOptions o;
  o.bdd_cache_size_log2 = 2;
  EXPECT_FALSE(o.validate().has_value());
  o.bdd_cache_size_log2 = 31;
  EXPECT_FALSE(o.validate().has_value());
  o.bdd_cache_size_log2 = 16;
  o.bdd_initial_capacity = 1;
  EXPECT_FALSE(o.validate().has_value());
}

TEST(SimOptions, RejectsCorruptEnums) {
  SimOptions o;
  o.strategy = static_cast<Strategy>(250);
  EXPECT_FALSE(o.validate().has_value());
  o = SimOptions{};
  o.layout = static_cast<VarLayout>(250);
  EXPECT_FALSE(o.validate().has_value());
  o = SimOptions{};
  o.sim3_backend = static_cast<Sim3Backend>(7);
  const auto checked = o.validate();
  ASSERT_FALSE(checked.has_value());
  EXPECT_NE(checked.error().find("sim3_backend"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Defaults and derived BDD settings
// ---------------------------------------------------------------------------

TEST(SimOptions, DefaultsAreThePaperProtocol) {
  // A default SimOptions runs the paper's experiment (Section V): MOT,
  // the 30,000-node OBDD space limit and 8-frame fallback windows.
  const SimOptions o;
  EXPECT_EQ(o.strategy, Strategy::Mot);
  EXPECT_EQ(o.layout, VarLayout::Interleaved);
  EXPECT_EQ(o.node_limit, 30000u);
  EXPECT_EQ(o.fallback_frames, 8u);
  EXPECT_EQ(o.hard_limit_factor, 8u);
  EXPECT_EQ(o.checkpoint_interval, 0u);
  EXPECT_TRUE(o.trim);
  EXPECT_TRUE(o.sgraph);
  EXPECT_EQ(o.threads, 1u);
  EXPECT_EQ(o.chunk_size, 0u);
  EXPECT_TRUE(o.run_xred);
  EXPECT_TRUE(o.run_symbolic);
  EXPECT_FALSE(o.analysis);
  EXPECT_EQ(o.sim3_backend, default_sim3_backend());
  EXPECT_EQ(o.bdd_initial_capacity, 1u << 12);
  EXPECT_EQ(o.bdd_cache_size_log2, 16u);
  EXPECT_EQ(o.bdd_auto_gc_floor, 1u << 16);
  EXPECT_EQ(o.telemetry, nullptr);
}

TEST(SimOptions, BddConfigCarriesTheHardLimit) {
  SimOptions o;
  o.node_limit = 1234;
  o.hard_limit_factor = 3;
  o.bdd_initial_capacity = 1u << 10;
  o.bdd_cache_size_log2 = 18;
  o.bdd_auto_gc_floor = 1u << 12;
  const bdd::BddConfig c = o.to_bdd_config();
  EXPECT_EQ(c.hard_node_limit, 1234u * 3u);
  EXPECT_EQ(c.initial_capacity, 1u << 10);
  EXPECT_EQ(c.cache_size_log2, 18u);
  EXPECT_EQ(c.auto_gc_floor, 1u << 12);
}

// ---------------------------------------------------------------------------
// Every entry point validates
// ---------------------------------------------------------------------------

/// Runs `entry` and returns the std::invalid_argument message it
/// threw, or "" when it did not throw one.
template <typename F>
std::string invalid_argument_of(F&& entry) {
  try {
    entry();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SimOptions, EveryEntryPointRejectsInvalidOptions) {
  const Netlist nl = make_s27();
  const CollapsedFaultList faults(nl);
  const TestSequence seq = sequence_from_strings({"0000"});

  SimOptions zero_limit;
  zero_limit.node_limit = 0;
  SimOptions huge_cache;  // 1 << 40 cache entries; 64 is an undefined shift
  huge_cache.bdd_cache_size_log2 = 40;
  SimOptions wrapping_limit;  // 2^61 * 8 wraps the hard limit to 0
  wrapping_limit.node_limit = std::size_t{1} << 61;
  for (const SimOptions& o : {zero_limit, huge_cache, wrapping_limit}) {
    const std::string expected = "SimOptions: " + o.validate().error();
    EXPECT_EQ(invalid_argument_of([&] {
                HybridFaultSim sim(nl, faults.faults(), o);
              }),
              expected);
    EXPECT_EQ(invalid_argument_of([&] {
                ParallelSymSim sim(nl, faults.faults(), o);
              }),
              expected);
    EXPECT_EQ(invalid_argument_of([&] {
                (void)run_pipeline(nl, faults.faults(), seq, o);
              }),
              expected);
  }
  EXPECT_EQ(zero_limit.validate().error(), "node_limit must be positive");
  EXPECT_EQ(huge_cache.validate().error(),
            "bdd_cache_size_log2 must be in [4, 30]");
  EXPECT_EQ(wrapping_limit.validate().error(),
            "node_limit * hard_limit_factor overflows");
}

}  // namespace
}  // namespace motsim
