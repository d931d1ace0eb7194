// Thread-count ablation of the fault-sharded parallel symbolic engine
// (core/parallel_sym_sim).
//
// For each circuit the FULL collapsed fault list goes straight into
// the symbolic engine (no ID_X-red / X01 pre-filtering — the point is
// to give every worker real work), once per thread count. Per-fault
// results are bit-identical across the sweep by construction (the
// shard partition never depends on the thread count); the harness
// asserts that while it measures the scaling curve.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED, plus
//   MOTSIM_THREADS_MAX=n  highest thread count of the sweep
//                         (default 8)
//   MOTSIM_CHUNK=n        shard size (default kDefaultChunkSize)
//
// A first row runs the serial engine (one HybridFaultSim over the whole
// list, what run_pipeline does at threads = 1), and every sharded row
// reports its time over the serial time. That ratio is measured, not
// gated; serial and sharded verdicts may differ once fallback windows
// open (docs/PARALLEL.md), so only the sharded rows are checked for
// determinism.
//
// On a single-core host every thread count measures ~1x; the sharding
// itself costs only the per-shard manager setup.

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "core/hybrid_sim.h"
#include "core/parallel_sym_sim.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

int main() {
  print_preamble("threads ablation",
                 "fault-sharded parallel symbolic simulation");

  const std::size_t max_threads =
      static_cast<std::size_t>(env_int("MOTSIM_THREADS_MAX", 8));
  const std::size_t chunk =
      static_cast<std::size_t>(env_int("MOTSIM_CHUNK", 0));
  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 48));

  // Quick mode: one mid-size controller and one >=1k-fault circuit;
  // full mode adds a third, larger one.
  std::vector<std::string> names{"s526", "s1238"};
  if (full_mode()) names.push_back("s1423");

  for (const std::string& name : names) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);
    std::printf("%s: %zu faults, %zu vectors, chunk %zu\n", name.c_str(),
                faults.size(), seq.size(),
                chunk == 0 ? kDefaultChunkSize : chunk);
    std::printf("  %7s %9s %9s %8s %9s %10s\n", "threads", "detected",
                "time[s]", "speedup", "fallback", "vs serial");

    SimOptions cfg;
    cfg.strategy = Strategy::Mot;
    cfg.chunk_size = chunk;
    HybridFaultSim serial_sim(nl, faults.faults(), cfg);
    Stopwatch serial_timer;
    const HybridResult serial = serial_sim.run(seq);
    const double serial_secs = serial_timer.elapsed_seconds();
    std::printf("  %7s %9zu %9.3f %8s %9zu\n", "serial",
                serial.detected_count, serial_secs, "",
                serial.fallback_windows);

    double t1 = 0;
    std::vector<FaultStatus> reference;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      cfg.threads = threads;
      ParallelSymSim sim(nl, faults.faults(), cfg);
      Stopwatch timer;
      const HybridResult r = sim.run(seq);
      const double secs = timer.elapsed_seconds();
      if (threads == 1) {
        t1 = secs;
        reference = r.status;
      } else if (r.status != reference) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s differs at %zu threads\n",
                     name.c_str(), threads);
        return 1;
      }
      std::printf("  %7zu %9zu %9.3f %7.2fx %9zu %9.2fx\n", threads,
                  r.detected_count, secs, secs > 0 ? t1 / secs : 0.0,
                  r.fallback_windows,
                  serial_secs > 0 ? secs / serial_secs : 0.0);
    }
    std::printf("\n");
  }
  std::printf("per-fault statuses identical across the sharded sweep.\n");
  return 0;
}
