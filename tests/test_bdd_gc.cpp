// Garbage collection, the node limit and memory-management invariants.

#include <gtest/gtest.h>

#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bdd/bdd.h"
#include "util/rng.h"

namespace motsim::bdd {
namespace {

TEST(BddGc, CollectsUnreferencedNodes) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  {
    const Bdd garbage = (a ^ b) | (b ^ c);
    EXPECT_GT(mgr.live_node_count(), 3u);
  }
  mgr.gc();
  // Only the three projection nodes survive.
  EXPECT_EQ(mgr.live_node_count(), 3u);
}

TEST(BddGc, KeepsEverythingReachableFromHandles) {
  BddManager mgr;
  Rng rng(5);
  std::vector<Bdd> keep;
  for (int i = 0; i < 20; ++i) {
    Bdd f = mgr.var(static_cast<unsigned>(rng.below(6)));
    for (int j = 0; j < 5; ++j) {
      f = rng.flip() ? (f & mgr.var(static_cast<unsigned>(rng.below(6))))
                     : (f ^ mgr.var(static_cast<unsigned>(rng.below(6))));
    }
    keep.push_back(f);
  }
  // Remember truth tables, collect, and verify the functions survive.
  std::vector<std::vector<bool>> truth;
  for (const Bdd& f : keep) {
    std::vector<bool> t;
    for (unsigned a = 0; a < 64; ++a) {
      std::vector<bool> asg(6);
      for (unsigned v = 0; v < 6; ++v) asg[v] = ((a >> v) & 1) != 0;
      t.push_back(f.eval(asg));
    }
    truth.push_back(std::move(t));
  }
  mgr.gc();
  for (std::size_t i = 0; i < keep.size(); ++i) {
    for (unsigned a = 0; a < 64; ++a) {
      std::vector<bool> asg(6);
      for (unsigned v = 0; v < 6; ++v) asg[v] = ((a >> v) & 1) != 0;
      EXPECT_EQ(keep[i].eval(asg), truth[i][a]);
    }
  }
}

TEST(BddGc, CanonicityHoldsAcrossCollections) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f = a & b;
  mgr.gc();
  // Rebuilding the same function after GC must find the same node.
  const Bdd g = a & b;
  EXPECT_EQ(f, g);
}

TEST(BddGc, SlotsAreReused) {
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  { const Bdd t1 = (a ^ b) ^ c; }
  mgr.gc();
  const std::size_t live_after_gc = mgr.live_node_count();
  { const Bdd t2 = (a | b) & c; }
  mgr.gc();
  EXPECT_EQ(mgr.live_node_count(), live_after_gc);
}

TEST(BddGc, HardLimitThrowsBddOverflow) {
  BddConfig cfg;
  cfg.hard_node_limit = 40;
  BddManager mgr(cfg);
  EXPECT_THROW(
      {
        Bdd parity = mgr.zero();
        for (unsigned v = 0; v < 32; ++v) parity ^= mgr.var(v);
      },
      BddOverflow);
}

TEST(BddGc, LimitCanBeRaisedAfterOverflow) {
  BddConfig cfg;
  cfg.hard_node_limit = 30;
  BddManager mgr(cfg);
  auto build = [&] {
    Bdd parity = mgr.zero();
    for (unsigned v = 0; v < 12; ++v) parity ^= mgr.var(v);
    return parity;
  };
  EXPECT_THROW((void)build(), BddOverflow);
  mgr.gc();  // reclaim the partial garbage
  mgr.set_hard_node_limit(static_cast<std::size_t>(-1));
  const Bdd parity = build();
  EXPECT_EQ(parity.node_count(), 23u);
}

TEST(BddGc, AutoGcTriggersUnderChurn) {
  BddConfig cfg;
  cfg.auto_gc_floor = 256;  // tiny so the test exercises the path
  BddManager mgr(cfg);
  Rng rng(9);
  auto v = [&] { return mgr.var(static_cast<unsigned>(rng.below(10))); };
  for (int i = 0; i < 2000; ++i) {
    const Bdd t = ((v() ^ v()) & (v() | v())) ^ v();
    (void)t;  // dropped immediately: pure churn
  }
  EXPECT_GT(mgr.stats().gc_runs, 0u);
  // Churn must not accumulate: after one more manual GC only the
  // projections (and nothing proportional to the loop count) remain.
  mgr.gc();
  EXPECT_LT(mgr.live_node_count(), 64u);
}

TEST(BddGc, CacheSurvivesLogicallyAfterInvalidation) {
  // GC invalidates the whole computed cache by starting a new cache
  // generation (no entry is rewritten); results must still be correct
  // (recomputed) afterwards.
  BddManager mgr;
  const Bdd a = mgr.var(0), b = mgr.var(1);
  const Bdd f1 = a ^ b;
  mgr.gc();
  const Bdd f2 = a ^ b;
  EXPECT_EQ(f1, f2);
}

TEST(BddGc, StaleCachedResultIsNeverReturnedAfterSlotReuse) {
  BddManager mgr;
  NodeId f_id = 0, g_id = 0;
  {
    const Bdd f = mgr.var(0) ^ mgr.var(1);
    const Bdd g = mgr.var(2) | mgr.var(3);
    const Bdd fg = f & g;  // cached under the slots of f and g
    f_id = f.id();
    g_id = g.id();
  }
  mgr.gc();  // frees every node above, projections included
  ASSERT_EQ(mgr.live_node_count(), 0u);

  // Refill the freed slots with nodes over disjoint variables. Every
  // intermediate result is kept, so every new node stays reachable.
  Rng rng(3);
  std::vector<Bdd> keep;
  for (int i = 0; i < 64; ++i) {
    Bdd f = mgr.var(4 + static_cast<unsigned>(rng.below(6)));
    for (int j = 0; j < 4; ++j) {
      const Bdd v = mgr.var(4 + static_cast<unsigned>(rng.below(6)));
      f = rng.flip() ? (f & !v) : (f ^ v);
      keep.push_back(f);
    }
  }
  std::unordered_map<NodeId, Bdd> at;
  std::vector<Bdd> stack = keep;
  while (!stack.empty()) {
    const Bdd f = stack.back();
    stack.pop_back();
    if (f.is_const() || !at.emplace(f.id(), f).second) continue;
    stack.push_back(f.high());
    stack.push_back(f.low());
  }
  ASSERT_TRUE(at.count(f_id) != 0 && at.count(g_id) != 0)
      << "the old operand slots were not reused";

  // Same slot pair as the cached AND, different functions.
  const Bdd p = at.at(f_id), q = at.at(g_id);
  const Bdd pq = p & q;
  for (unsigned a = 0; a < 1024; ++a) {
    std::vector<bool> asg(10);
    for (unsigned v = 0; v < 10; ++v) asg[v] = ((a >> v) & 1) != 0;
    ASSERT_EQ(pq.eval(asg), p.eval(asg) && q.eval(asg));
  }
}

TEST(BddGc, SweepAfterTransientPeakLeavesExactlyTheLiveSet) {
  BddManager mgr;
  std::vector<Bdd> keep;
  for (unsigned v = 0; v < 4; ++v) keep.push_back(mgr.var(v) ^ mgr.var(v + 1));
  for (int round = 0; round < 3; ++round) {
    {
      // sum_i x_i x_{i+12} under the interleaving-hostile order: a
      // transient peak of thousands of nodes over a live set of a few.
      Bdd peak = mgr.zero();
      for (unsigned i = 0; i < 12; ++i) {
        peak |= mgr.var(i) & mgr.var(i + 12);
      }
      // One small survivor per round, built from nodes of the peak.
      const unsigned r = static_cast<unsigned>(round);
      keep.push_back(peak & mgr.var(r) & mgr.var(r + 12) & mgr.var(r + 1));
      ASSERT_GT(mgr.live_node_count(), 4000u);
    }
    mgr.gc();
    EXPECT_EQ(mgr.live_node_count(),
              mgr.node_count(std::span<const Bdd>(keep)));
    const std::uint64_t reclaimed = mgr.stats().gc_reclaimed_nodes;
    const std::size_t live = mgr.live_node_count();
    mgr.gc();
    EXPECT_EQ(mgr.stats().gc_reclaimed_nodes, reclaimed);
    EXPECT_EQ(mgr.live_node_count(), live);
    keep.pop_back();  // next round's peak reuses this one's slots too
  }
  EXPECT_GT(mgr.stats().gc_seconds, 0.0);
}

TEST(BddGc, AssignedHandlesStayRoots) {
  // Assignment between handles of one manager only changes the node id;
  // assignment into a null or foreign handle registers it with the
  // source's manager. Either way the target is a root for the next GC.
  BddManager mgr, other;
  const Bdd a = mgr.var(0), b = mgr.var(1), c = mgr.var(2);
  Bdd by_copy = a & b, by_move = a | b;
  Bdd foreign_copy = other.var(0), foreign_move = other.var(1), from_null;
  {
    const Bdd x = (a ^ b) & c;
    Bdd not_x = !x, x_or_a = x | a;
    by_copy = x;
    by_move = std::move(not_x);
    foreign_copy = x;
    foreign_move = std::move(x_or_a);
    from_null = x ^ a;
    EXPECT_TRUE(not_x.is_null());
    EXPECT_TRUE(x_or_a.is_null());
  }
  EXPECT_EQ(mgr.handle_count(), 8u);
  EXPECT_EQ(other.handle_count(), 0u);
  mgr.gc();
  const Bdd all[] = {a, b, c, by_copy, by_move, foreign_copy, foreign_move,
                     from_null};
  EXPECT_EQ(mgr.live_node_count(), mgr.node_count(std::span<const Bdd>(all)));
  for (unsigned m = 0; m < 8; ++m) {
    const std::vector<bool> asg{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    const bool x = (asg[0] != asg[1]) && asg[2];
    EXPECT_EQ(by_copy.eval(asg), x);
    EXPECT_EQ(by_move.eval(asg), !x);
    EXPECT_EQ(foreign_copy.eval(asg), x);
    EXPECT_EQ(foreign_move.eval(asg), x || asg[0]);
    EXPECT_EQ(from_null.eval(asg), x != asg[0]);
  }
}

TEST(BddGc, ManagerOutlivesDetachedHandles) {
  // Handles destructed after their manager must not crash: the manager
  // detaches them on destruction.
  Bdd stray;
  {
    BddManager mgr;
    stray = mgr.var(0);
    EXPECT_FALSE(stray.is_null());
  }
  EXPECT_TRUE(stray.is_null());
}

TEST(BddGc, RootCountsTrackRandomHandleChurn) {
  // Handles of two managers share one pool, so assignments cross
  // managers as often as not. After each batch, every manager's live
  // set must be exactly what its non-null handles reach, and its
  // handle count exactly their number.
  BddManager m0, m1;
  BddManager* const mgrs[] = {&m0, &m1};
  Rng rng(17);
  std::vector<Bdd> pool;
  for (BddManager* m : mgrs) {
    for (unsigned v = 0; v < 4; ++v) pool.push_back(m->var(v));
  }
  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 200; ++op) {
      const std::size_t i = rng.below(pool.size());
      const std::size_t j = rng.below(pool.size());
      switch (rng.below(8)) {
        case 0:  // copy-construct
          pool.push_back(pool[j]);
          break;
        case 1:  // copy-assign
          pool[i] = pool[j];
          break;
        case 2:  // move-assign (i == j is a self-move)
          pool[i] = std::move(pool[j]);
          break;
        case 3: {  // self-assign
          Bdd& self = pool[i];
          pool[i] = self;
          break;
        }
        case 4:  // reset to null
          pool[i] = Bdd();
          break;
        case 5: {  // move-construct
          Bdd moved(std::move(pool[j]));
          pool.push_back(std::move(moved));
          break;
        }
        default: {  // a fresh function of either manager
          BddManager& m = *mgrs[rng.below(2)];
          Bdd f = m.var(static_cast<VarIndex>(rng.below(10)));
          if (pool[j].manager() == &m) {
            f = rng.flip() ? f ^ pool[j] : f & pool[j];
          }
          pool[i] = f;
          break;
        }
      }
    }
    if (pool.size() > 400) pool.resize(200);
    for (BddManager* m : mgrs) {
      m->gc();
      std::vector<Bdd> mine;
      for (const Bdd& h : pool) {
        if (h.manager() == m) mine.push_back(h);
      }
      const std::size_t handles = mine.size();
      EXPECT_EQ(m->live_node_count(),
                m->node_count(std::span<const Bdd>(mine)));
      mine.clear();
      EXPECT_EQ(m->handle_count(), handles);
    }
  }
}

TEST(BddGc, StrayHandlesStayNullAfterTheirManagerDies) {
  BddManager live;
  const Bdd live_f = live.var(0) & live.var(1);
  for (const bool front_first : {false, true}) {
    std::vector<Bdd> strays;
    {
      BddManager mgr;
      strays.push_back(mgr.var(0));
      strays.push_back(mgr.var(1) ^ mgr.var(2));
      strays.push_back(mgr.one());
    }
    const Bdd copy = strays[0];
    strays.push_back(copy);
    strays[1] = strays[2];
    strays[2] = std::move(strays[3]);
    strays[3] = strays[0];
    Bdd was_live = live.var(3);
    was_live = strays[1];
    strays.push_back(std::move(was_live));
    for (const Bdd& h : strays) EXPECT_TRUE(h.is_null());
    EXPECT_TRUE(copy.is_null());

    Bdd revived = strays[0];
    revived = live_f;
    EXPECT_EQ(revived, live_f);
    EXPECT_EQ(live.handle_count(), 2u);  // live_f and revived

    while (!strays.empty()) {
      if (front_first) {
        strays.erase(strays.begin());
      } else {
        strays.pop_back();
      }
    }
  }
  live.gc();
  EXPECT_EQ(live.handle_count(), 1u);
  EXPECT_EQ(live.live_node_count(), live_f.node_count());
}

/// Number of internal nodes reachable from `roots` that the unique
/// table fails to return when the node is rebuilt from its own
/// (var, high, low) triple — each one is a duplicated node.
std::size_t unfindable_nodes(BddManager& mgr, const std::vector<Bdd>& roots) {
  std::unordered_set<NodeId> seen;
  std::vector<Bdd> stack(roots.begin(), roots.end());
  std::size_t missing = 0;
  while (!stack.empty()) {
    const Bdd f = stack.back();
    stack.pop_back();
    if (f.is_const() || !seen.insert(f.id()).second) continue;
    const Bdd hi = f.high(), lo = f.low();
    if (mgr.ite(mgr.var(f.top_var()), hi, lo) != f) ++missing;
    stack.push_back(hi);
    stack.push_back(lo);
  }
  return missing;
}

TEST(BddGc, UniqueTableStaysCanonicalAcrossRehashes) {
  // A tiny initial table makes the unique table rehash many times,
  // both while fresh slots are appended and, after the collection,
  // while freed slots are reused. Every intermediate result is kept,
  // so every node the churn creates is checked.
  std::size_t missing = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    BddConfig cfg;
    cfg.initial_capacity = 16;
    BddManager mgr(cfg);
    Rng rng(seed);
    auto v = [&] { return mgr.var(static_cast<unsigned>(rng.below(14))); };
    std::vector<Bdd> keep{v()};
    auto churn = [&](int ops) {
      for (int i = 0; i < ops; ++i) {
        const Bdd a = keep[rng.below(keep.size())];
        switch (rng.below(3)) {
          case 0: keep.push_back(a & v()); break;
          case 1: keep.push_back(a | !v()); break;
          default: keep.push_back(a ^ v()); break;
        }
      }
    };
    churn(400);
    missing += unfindable_nodes(mgr, keep);
    keep.resize(keep.size() / 4);
    mgr.gc();
    churn(400);
    missing += unfindable_nodes(mgr, keep);
  }
  EXPECT_EQ(missing, 0u);
}

TEST(BddGc, PeakLiveNodesIsMonotone) {
  BddManager mgr;
  Bdd f = mgr.zero();
  for (unsigned v = 0; v < 10; ++v) f ^= mgr.var(v);
  const std::size_t peak = mgr.stats().peak_live_nodes;
  mgr.gc();
  EXPECT_GE(mgr.stats().peak_live_nodes, peak);
  EXPECT_GE(peak, mgr.live_node_count());
}

}  // namespace
}  // namespace motsim::bdd
