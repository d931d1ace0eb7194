// Why the three-valued lower bound can be arbitrarily bad — the
// synchronizing-sequence view (paper Section I, citing Miczo [11] and
// Cho et al. [5]).
//
// A circuit is easy for three-valued fault simulation exactly when a
// short synchronizing sequence exists (the X's drain out). The counter
// benchmarks have *no* synchronizing sequence at all — their XOR
// feedback permutes the state space — so X01 detects almost nothing,
// yet MOT proves most faults detectable. This demo runs the symbolic
// synchronizing-sequence search next to the fault-simulation pipeline
// on one circuit of each kind.

#include <cstdio>

#include "bench_data/registry.h"
#include "core/pipeline.h"
#include "core/symbolic_fsm.h"
#include "faults/collapse.h"
#include "tpg/sequences.h"
#include "util/rng.h"

using namespace motsim;

int main() {
  for (const char* name : {"s298", "s208.1"}) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    std::printf("=== %s (%zu flip-flops, %zu faults) ===\n", name,
                nl.dff_count(), faults.size());

    // Synchronizing-sequence analysis.
    bdd::BddManager mgr;
    const SymbolicFsm fsm(nl, mgr, StateVars(nl.dff_count()));
    const SyncSearchResult sync = find_synchronizing_sequence(fsm, 16, 2048);
    if (sync.found) {
      std::printf("synchronizable: YES (sequence length %zu)\n",
                  sync.sequence.size());
    } else {
      std::printf("synchronizable: no sequence within bounds "
                  "(uncertainty never drops below %.0f states)\n",
                  sync.final_states);
    }

    // Reachability from the all-zero state, for scale.
    bdd::Bdd zero_state = mgr.one();
    for (std::size_t i = 0; i < nl.dff_count(); ++i) {
      zero_state &= !mgr.var(fsm.vars().x(i));
    }
    std::printf("states reachable from 0...0: %.0f of %.0f\n",
                fsm.count_states(fsm.reachable(zero_state)),
                fsm.count_states(fsm.all_states()));

    // Fault-simulation pipeline: X01 vs MOT.
    Rng rng(7);
    const TestSequence seq = random_sequence(nl, 100, rng);
    SimOptions cfg;
    cfg.strategy = Strategy::Mot;
    const PipelineResult r = run_pipeline(nl, faults.faults(), seq, cfg);
    std::printf("X01 detects %zu, MOT adds %zu  ->  coverage %.1f%%\n\n",
                r.detected_3v, r.detected_symbolic,
                r.summary().coverage() * 100.0);
  }

  std::printf(
      "The synchronizable controller is nearly fully covered by X01; the\n"
      "unsynchronizable counter is invisible to X01 but largely covered\n"
      "by the multiple observation time strategy.\n");
  return 0;
}
