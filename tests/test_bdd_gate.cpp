// Contract of BddManager::apply_gate: against a handle-level reference
// fold (`acc = one(); acc &= x_i ...; !acc`) run on a second manager
// with the same configuration, every gate yields the same function, the
// managers end with equal BddStats, a collection that fires inside a
// gate changes nothing, and a node-limit overflow is thrown at the same
// gate on both sides.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "bdd/bdd.h"
#include "util/rng.h"

namespace motsim::bdd {
namespace {

constexpr unsigned kVars = 10;

/// The fold apply_gate replaces: one handle-level apply per operand,
/// stopping at the absorbing value, then one NOT. Counts into
/// `mid_gate` the collections that ran after the first step.
Bdd reference_gate(BddManager& mgr, GateOp op, bool negate,
                   const std::vector<Bdd>& operands, std::size_t& mid_gate) {
  Bdd acc = op == GateOp::And ? mgr.one() : mgr.zero();
  for (std::size_t i = 0; i < operands.size(); ++i) {
    const std::uint64_t runs = mgr.stats().gc_runs;
    if (op == GateOp::And) {
      if (acc.is_zero()) break;
      acc &= operands[i];
    } else if (op == GateOp::Or) {
      if (acc.is_one()) break;
      acc |= operands[i];
    } else {
      acc ^= operands[i];
    }
    if (i > 0 && mgr.stats().gc_runs != runs) ++mid_gate;
  }
  if (!negate) return acc;
  const std::uint64_t runs = mgr.stats().gc_runs;
  Bdd out = !acc;
  if (mgr.stats().gc_runs != runs) ++mid_gate;
  return out;
}

/// Pseudo-random function of at most kVars variables, built the same
/// way on any manager for the same seed.
Bdd random_function(BddManager& mgr, std::uint64_t seed) {
  Rng rng(seed);
  Bdd f = mgr.var(static_cast<VarIndex>(rng.below(kVars)));
  for (int d = 0; d < 6; ++d) {
    const Bdd v = mgr.var(static_cast<VarIndex>(rng.below(kVars)));
    switch (rng.below(3)) {
      case 0:
        f &= rng.flip() ? v : !v;
        break;
      case 1:
        f |= rng.flip() ? v : !v;
        break;
      default:
        f ^= v;
        break;
    }
  }
  return f;
}

void expect_equal_stats(const BddStats& a, const BddStats& b) {
  EXPECT_EQ(a.nodes_created, b.nodes_created);
  EXPECT_EQ(a.unique_hits, b.unique_hits);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.gc_reclaimed_nodes, b.gc_reclaimed_nodes);
  EXPECT_EQ(a.peak_live_nodes, b.peak_live_nodes);
}

struct Outcome {
  std::size_t gates = 0;               ///< gates evaluated
  std::optional<std::size_t> overflow;  ///< gate index that threw
  /// Collections the reference fold ran after a gate's first step.
  std::size_t mid_gate_collections = 0;
};

/// Runs `count` random gates on two managers: apply_gate on `fast`,
/// the reference fold on `ref`. Each pool slot holds the same function
/// in both; gate results overwrite random slots, so earlier functions
/// become garbage. Stops at the first BddOverflow, which must hit both
/// sides at the same gate.
Outcome run_gates(BddManager& fast, BddManager& ref, std::uint64_t seed,
                  std::size_t count, std::size_t pool_size,
                  std::size_t hard_limit_slack) {
  std::vector<Bdd> pool_fast;
  std::vector<Bdd> pool_ref;
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool_fast.push_back(random_function(fast, seed * 1000 + i));
    pool_ref.push_back(random_function(ref, seed * 1000 + i));
  }
  if (hard_limit_slack != 0) {
    fast.set_hard_node_limit(fast.live_node_count() + hard_limit_slack);
    ref.set_hard_node_limit(ref.live_node_count() + hard_limit_slack);
  }

  Rng rng(seed);
  Outcome out;
  std::vector<NodeId> ids;
  std::vector<Bdd> operands;
  std::vector<bool> assignment(kVars);
  for (std::size_t gate = 0; gate < count; ++gate) {
    const auto op = static_cast<GateOp>(rng.below(3));
    const bool negate = rng.flip();
    const std::size_t arity = 1 + rng.below(6);
    ids.clear();
    operands.clear();
    for (std::size_t i = 0; i < arity; ++i) {
      const std::uint64_t pick = rng.below(10);
      if (pick < 2) {
        // A constant operand.
        ids.push_back(pick == 0 ? kFalseId : kTrueId);
        operands.push_back(ref.constant(pick == 1));
      } else {
        const std::size_t slot = rng.below(pool_size);
        ids.push_back(pool_fast[slot].id());
        operands.push_back(pool_ref[slot]);
      }
    }
    const std::size_t target = rng.below(pool_size);

    bool fast_threw = false;
    bool ref_threw = false;
    Bdd got;
    Bdd want;
    try {
      got = fast.apply_gate(op, negate, ids);
    } catch (const BddOverflow&) {
      fast_threw = true;
    }
    try {
      want = reference_gate(ref, op, negate, operands,
                            out.mid_gate_collections);
    } catch (const BddOverflow&) {
      ref_threw = true;
    }
    EXPECT_EQ(fast_threw, ref_threw) << "gate " << gate;
    if (fast_threw || ref_threw) {
      out.overflow = gate;
      break;
    }
    ++out.gates;

    // Same history on both managers, so the same node; and the same
    // function under sampled assignments.
    EXPECT_EQ(got.id(), want.id()) << "gate " << gate;
    for (int s = 0; s < 4; ++s) {
      for (unsigned v = 0; v < kVars; ++v) assignment[v] = rng.flip();
      EXPECT_EQ(got.eval(assignment), want.eval(assignment))
          << "gate " << gate;
    }
    pool_fast[target] = got;
    pool_ref[target] = want;
  }
  expect_equal_stats(fast.stats(), ref.stats());
  EXPECT_EQ(fast.live_node_count(), ref.live_node_count());
  return out;
}

TEST(BddApplyGate, MatchesHandleFoldOpByOp) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BddManager fast;
    BddManager ref;
    const Outcome out = run_gates(fast, ref, seed, 2000, 24, 0);
    EXPECT_EQ(out.gates, 2000u);
    EXPECT_FALSE(out.overflow.has_value());
  }
}

TEST(BddApplyGate, AllConstantOperandsFoldWithoutNodes) {
  BddManager mgr;
  const std::vector<NodeId> t{kTrueId, kTrueId, kFalseId};
  EXPECT_TRUE(mgr.apply_gate(GateOp::And, false, t).is_zero());
  EXPECT_TRUE(mgr.apply_gate(GateOp::And, true, t).is_one());
  EXPECT_TRUE(mgr.apply_gate(GateOp::Or, false, t).is_one());
  EXPECT_TRUE(mgr.apply_gate(GateOp::Xor, false, t).is_zero());
  EXPECT_TRUE(mgr.apply_gate(GateOp::Xor, true, t).is_one());
  const std::vector<NodeId> one{kTrueId};
  EXPECT_TRUE(mgr.apply_gate(GateOp::And, true, one).is_zero());  // NOT
  EXPECT_EQ(mgr.stats().cache_lookups, 0u);
  EXPECT_EQ(mgr.stats().nodes_created, 0u);
  EXPECT_EQ(mgr.handle_count(), 0u);
}

TEST(BddApplyGate, CollectionInsideAGateChangesNothing) {
  // A tiny floor makes the automatic collection fire between the
  // pairwise steps of some gates; the running result must survive it
  // and the collections must match the reference fold's one for one.
  std::size_t mid_gate = 0;
  for (std::uint64_t seed = 11; seed <= 26; ++seed) {
    BddConfig cfg;
    cfg.auto_gc_floor = 8;
    BddManager fast(cfg);
    BddManager ref(cfg);
    const Outcome out = run_gates(fast, ref, seed, 3000, 8, 0);
    EXPECT_EQ(out.gates, 3000u);
    EXPECT_GT(fast.stats().gc_reclaimed_nodes, 0u);
    mid_gate += out.mid_gate_collections;
  }
  EXPECT_GE(mid_gate, 10u);
}

TEST(BddApplyGate, OverflowIsThrownAtTheSameGate) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    BddManager fast;
    BddManager ref;
    const Outcome out = run_gates(fast, ref, seed, 5000, 24, 150);
    EXPECT_TRUE(out.overflow.has_value()) << "seed " << seed;
  }
}

TEST(BddApplyGate, OverflowWithCollectionsInsideGates) {
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    BddConfig cfg;
    cfg.auto_gc_floor = 8;
    BddManager fast(cfg);
    BddManager ref(cfg);
    const Outcome out = run_gates(fast, ref, seed, 5000, 24, 120);
    EXPECT_TRUE(out.overflow.has_value()) << "seed " << seed;
    EXPECT_GT(fast.stats().gc_runs, 0u);
  }
}

}  // namespace
}  // namespace motsim::bdd
