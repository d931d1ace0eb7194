// The hybrid fault simulator under space pressure (paper Sections I
// and IV.A).
//
// The s208.1-like counter is the paper's stress case for the MOT
// strategy: the detection functions D~(x,y) over two copies of the
// state variables grow quickly. This demo sweeps the OBDD node limit
// and shows the trade-off the paper describes for s838.1 — a tighter
// limit forces more three-valued windows, which costs accuracy
// (detected faults) but bounds memory.

#include <cstdio>

#include "bench_data/registry.h"
#include "core/hybrid_sim.h"
#include "core/options.h"
#include "core/parallel_sym_sim.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;

int main() {
  const Netlist nl = make_benchmark("s208.1");
  const CollapsedFaultList faults(nl);
  Rng rng(2025);
  const TestSequence seq = random_sequence(nl, 120, rng);

  std::printf("circuit %s: %zu gates, %zu flip-flops, %zu collapsed "
              "faults, %zu test vectors\n\n",
              nl.name().c_str(), nl.gate_count(), nl.dff_count(),
              faults.size(), seq.size());
  std::printf("%10s %9s %9s %8s %8s %8s %10s %9s\n", "node-limit",
              "detected", "fallbacks", "sym-frm", "3v-frm", "bin-frm",
              "peak-nodes", "time[s]");

  for (std::size_t limit : {200u, 1000u, 5000u, 30000u, 200000u}) {
    // The engine validates its SimOptions (std::invalid_argument with
    // the validate() message) before any manager is allocated.
    SimOptions opt;
    opt.strategy = Strategy::Mot;
    opt.node_limit = limit;
    opt.fallback_frames = 8;
    HybridFaultSim sim(nl, faults.faults(), opt);
    Stopwatch timer;
    const HybridResult r = sim.run(seq);
    std::printf("%10zu %9zu %9zu %8zu %8zu %8zu %10zu %9.3f%s\n", limit,
                r.detected_count, r.fallback_windows, r.symbolic_frames,
                r.three_valued_frames, r.binary_frames, r.peak_live_nodes,
                timer.elapsed_seconds(), r.used_fallback ? "  *" : "");
  }

  // The same engine, fault-sharded across worker threads (one private
  // BddManager per shard). The result is bit-identical for any thread
  // count; only the wall clock changes.
  {
    SimOptions pc;
    pc.strategy = Strategy::Mot;
    pc.threads = 0;  // one worker per hardware thread
    ParallelSymSim par(nl, faults.faults(), pc);
    Stopwatch timer;
    const HybridResult r = par.run(seq);
    std::printf("\nfault-sharded (%zu threads): %zu detected in %.3f s\n",
                par.resolved_threads(), r.detected_count,
                timer.elapsed_seconds());
  }

  std::printf(
      "\n* = three-valued fallback windows ran; the coverage is then a\n"
      "    lower bound (the asterisk of the paper's Tables II/III).\n");
  return 0;
}
