// Micro-benchmarks of the OBDD package (google-benchmark): the kernels
// the symbolic fault simulator leans on — AND/XOR/ITE recursion,
// composition, the order-preserving rename used by MOT, quantification
// and garbage collection — and the propagation loop on top of them.

#include <benchmark/benchmark.h>

#include "bdd/bdd.h"
#include "bench_data/registry.h"
#include "core/sym_fault_sim.h"
#include "core/sym_true_value.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"

namespace {

using motsim::Rng;
using namespace motsim::bdd;

/// Builds a set of pseudo-random functions of `nvars` variables.
std::vector<Bdd> random_functions(BddManager& mgr, unsigned nvars,
                                  std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bdd> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Bdd f = mgr.var(static_cast<VarIndex>(rng.below(nvars)));
    for (int depth = 0; depth < 10; ++depth) {
      const Bdd v = mgr.var(static_cast<VarIndex>(rng.below(nvars)));
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
    out.push_back(f);
  }
  return out;
}

void BM_BddAnd(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs[i % 64] & fs[(i + 17) % 64]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddAnd);

void BM_BddXor(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs[i % 64] ^ fs[(i + 29) % 64]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddXor);

void BM_BddIte(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.ite(fs[i % 64], fs[(i + 7) % 64], fs[(i + 41) % 64]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddIte);

void BM_BddCompose(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.compose(fs[i % 64], static_cast<VarIndex>(i % 24),
                    fs[(i + 13) % 64]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddCompose);

void BM_BddRenameXToY(benchmark::State& state) {
  // The MOT substitution: functions over interleaved x variables are
  // shifted onto the y variables.
  BddManager mgr;
  const motsim::StateVars vars(12);
  mgr.ensure_vars(vars.var_count());
  Rng rng(5);
  std::vector<Bdd> fs;
  for (int i = 0; i < 64; ++i) {
    Bdd f = mgr.var(vars.x(rng.below(12)));
    for (int d = 0; d < 10; ++d) {
      const Bdd v = mgr.var(vars.x(rng.below(12)));
      f = rng.flip() ? (f & v) : (f ^ v);
    }
    fs.push_back(f);
  }
  const auto mapping = vars.x_to_y_mapping();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.rename(fs[i % 64], mapping));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddRenameXToY);

void BM_BddExists(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 6);
  const std::vector<VarIndex> half{0, 2, 4, 6, 8, 10};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.exists(fs[i % 64], half));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddExists);

void BM_BddParity(benchmark::State& state) {
  // Linear-size worst case of the unique table: n-variable parity. One
  // manager for the whole run; the untimed collection between
  // iterations frees the chain and invalidates the computed cache, so
  // every iteration builds the chain afresh. An item is one XOR.
  const auto n = static_cast<unsigned>(state.range(0));
  BddManager mgr;
  std::vector<Bdd> vars;
  for (unsigned v = 0; v < n; ++v) vars.push_back(mgr.var(v));
  for (auto _ : state) {
    Bdd p = mgr.zero();
    for (const Bdd& v : vars) p ^= v;
    benchmark::DoNotOptimize(p.id());
    state.PauseTiming();
    p = Bdd();
    mgr.gc();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BddParity)->Arg(16)->Arg(64)->Arg(256);

/// The symbolic fault-frame loop of the hybrid engine without its
/// fallback: every collapsed fault of s510 through 32 frames of a fixed
/// random sequence under MOT, with the fault-free frame and the
/// per-frame collection. s510 is a p90 job of the pipeline benchmark's
/// mot_serial workload. An item is one gate evaluation of the
/// propagator.
void BM_SymPropagate(benchmark::State& state) {
  const motsim::Netlist nl = motsim::make_benchmark("s510");
  const motsim::CollapsedFaultList collapsed(nl);
  Rng rng(510);
  const motsim::TestSequence seq = motsim::random_sequence(nl, 32, rng);
  std::uint64_t evaluations = 0;
  for (auto _ : state) {
    BddManager mgr;
    const motsim::StateVars vars(nl.dff_count());
    motsim::SymTrueValueSim good(nl, mgr, vars);
    motsim::SymFaultPropagator prop(nl, mgr, vars);
    std::vector<motsim::SymFaultState> live(collapsed.size());
    std::vector<const motsim::Fault*> fault_of;
    for (const motsim::Fault& f : collapsed.faults()) fault_of.push_back(&f);
    for (motsim::SymFaultState& fs : live) fs.detect = mgr.one();
    for (const auto& frame : seq) {
      good.step(frame);
      motsim::SymFrameContext ctx(good.values(), good.state(),
                                  nl.output_count());
      std::size_t keep = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (prop.step(*fault_of[i], motsim::Strategy::Mot, live[i], ctx)) {
          continue;
        }
        if (keep != i) {
          live[keep] = std::move(live[i]);
          fault_of[keep] = fault_of[i];
        }
        ++keep;
      }
      live.resize(keep);
      fault_of.resize(keep);
      mgr.gc();
    }
    evaluations += prop.gate_evaluations();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
}
BENCHMARK(BM_SymPropagate)->Unit(benchmark::kMillisecond);

void BM_BddGc(benchmark::State& state) {
  BddManager mgr;
  const auto keep = random_functions(mgr, 24, 32, 7);
  Rng rng(8);
  for (auto _ : state) {
    // Produce garbage, then collect.
    for (int i = 0; i < 50; ++i) {
      const Bdd t = keep[rng.below(32)] ^ keep[rng.below(32)];
      benchmark::DoNotOptimize(t.id());
    }
    mgr.gc();
  }
}
BENCHMARK(BM_BddGc);

/// The hybrid simulator's pattern: one early transient peak, then a
/// collection per frame over a small live set. The peak leaves a large
/// node table and unique table behind, so this measures whether a
/// collection costs the frame's work or the table's high-water mark.
void BM_BddGcAfterPeak(benchmark::State& state) {
  BddManager mgr;
  const auto keep = random_functions(mgr, 24, 32, 11);
  {
    // sum_i x_i x_{i+15} under the interleaving-hostile order: ~100 K
    // nodes counting the intermediate sums.
    Bdd peak = mgr.zero();
    for (unsigned i = 0; i < 15; ++i) peak |= mgr.var(i) & mgr.var(i + 15);
    benchmark::DoNotOptimize(peak.id());
  }
  state.counters["peak_nodes"] =
      static_cast<double>(mgr.stats().peak_live_nodes);
  mgr.gc();
  Rng rng(12);
  auto v = [&] { return mgr.var(static_cast<VarIndex>(rng.below(24))); };
  for (auto _ : state) {
    // A few hundred garbage nodes per "frame", then the collection.
    for (int i = 0; i < 100; ++i) {
      const Bdd t = (v() & v()) ^ (v() | v());
      benchmark::DoNotOptimize(t.id());
    }
    mgr.gc();
  }
}
BENCHMARK(BM_BddGcAfterPeak);

/// The propagator's handle traffic with no apply call: per "fault", a
/// scratch vector takes copies of live functions, a few of them are
/// copied into a (position, function) diff list, and the scratch is
/// dropped again. Isolates what copying, assigning and destroying a
/// handle costs; an item is one handle operation.
void BM_BddHandleChurn(benchmark::State& state) {
  BddManager mgr;
  const auto live = random_functions(mgr, 24, 256, 13);
  std::vector<Bdd> scratch(live.size());
  std::vector<std::pair<std::uint32_t, Bdd>> diff;
  Rng rng(14);
  std::vector<std::uint32_t> touched(64);
  for (std::uint32_t& n : touched) {
    n = static_cast<std::uint32_t>(rng.below(256));
  }
  for (auto _ : state) {
    for (std::uint32_t k = 0; k < touched.size(); ++k) {
      scratch[touched[k]] = live[(touched[k] + k) % live.size()];
    }
    diff.clear();
    for (std::uint32_t k = 0; k < touched.size(); k += 4) {
      diff.emplace_back(k, scratch[touched[k]]);
    }
    for (const std::uint32_t n : touched) scratch[n] = Bdd();
    benchmark::DoNotOptimize(diff.data());
  }
  // 64 copy-assignments, 16 copies, 16 destructions, 64 resets.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 160);
}
BENCHMARK(BM_BddHandleChurn);

void BM_BddAndExists(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 10);
  const std::vector<VarIndex> half{1, 3, 5, 7, 9, 11};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mgr.and_exists(fs[i % 64], fs[(i + 11) % 64], half));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddAndExists);

void BM_BddConstrain(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 11);
  std::size_t i = 0;
  for (auto _ : state) {
    const Bdd& c = fs[(i + 23) % 64];
    if (!c.is_zero()) {
      benchmark::DoNotOptimize(mgr.constrain(fs[i % 64], c));
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BddConstrain);

void BM_BddSift(benchmark::State& state) {
  // Sift the adversarial pairwise AND-OR function from the blocked
  // order; n pairs.
  const auto n = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    BddManager mgr;
    Bdd f = mgr.zero();
    for (unsigned i = 0; i < n; ++i) f |= mgr.var(i) & mgr.var(n + i);
    benchmark::DoNotOptimize(mgr.reorder_sift(8.0));
  }
}
BENCHMARK(BM_BddSift)->Arg(4)->Arg(8);

void BM_BddSatCount(benchmark::State& state) {
  BddManager mgr;
  const auto fs = random_functions(mgr, 24, 64, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.sat_count(fs[i % 64], 24));
    ++i;
  }
}
BENCHMARK(BM_BddSatCount);

}  // namespace

BENCHMARK_MAIN();
