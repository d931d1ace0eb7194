// Checkpoint-interval ablation: what does campaign resumability cost?
//
// Sweeps the checkpoint-synchronization interval K of the hybrid
// engine (core/hybrid_sim.h). Every K completed frames the engine
// converts its symbolic state to three-valued form, persists a
// snapshot through a CheckpointSink and re-seeds — the mechanism that
// makes killed campaigns resumable bit-identically (store/campaign.h,
// docs/CHECKPOINT.md). The sweep measures that overhead against the
// K = 0 baseline (no syncs, no sink) and also reports the coverage
// effect: a sync is a zero-length fallback window, so small K can
// trade a little coverage for fine-grained resumability.
//
// The harness exits nonzero if the default campaign interval (K = 32)
// costs more than 5% wall-clock over the baseline — the budget the
// run store promises. The intervals are timed in 31 interleaved
// rounds, and the overhead is the median over rounds of the same-round
// time ratio, so host drift cancels.
//
// Environment (see bench_common.h): MOTSIM_FULL, MOTSIM_VECTORS,
// MOTSIM_SEED, plus
//   MOTSIM_THREADS=n   worker threads of the sharded engine (default 2)

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/parallel_sym_sim.h"
#include "faults/collapse.h"
#include "store/run_store.h"
#include "tpg/sequences.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace motsim;
using namespace motsim::bench;

namespace {

/// Persists every snapshot the way the run store does — serialized
/// CKPT line appended to a file — so the measured overhead includes
/// the real serialization and I/O, not just the engine-side sync.
class FileSink final : public CheckpointSink {
 public:
  explicit FileSink(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  void on_checkpoint(const ChunkCheckpoint& ck) override {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    if (f == nullptr) return;
    const std::string line = serialize_checkpoint_line(ck) + "\n";
    std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
    ++count;
  }
  std::size_t count = 0;

 private:
  std::string path_;
};

struct Measurement {
  double seconds = 0;
  std::size_t detected = 0;
  std::size_t syncs = 0;
  std::size_t records = 0;
};

Measurement run_once(const Netlist& nl, const std::vector<Fault>& faults,
                     const TestSequence& seq, std::size_t threads,
                     std::size_t interval, const std::string& sink_path) {
  SimOptions cfg;
  cfg.strategy = Strategy::Mot;
  cfg.checkpoint_interval = interval;
  cfg.threads = threads;
  ParallelSymSim sim(nl, faults, cfg);
  FileSink sink(sink_path);
  if (interval != 0) sim.set_checkpoint_sink(&sink);
  Stopwatch timer;
  const HybridResult r = sim.run(seq);
  Measurement m;
  m.seconds = timer.elapsed_seconds();
  m.detected = r.detected_count;
  m.syncs = r.checkpoint_syncs;
  m.records = sink.count;
  return m;
}

struct Sweep {
  /// Per interval, its fastest run.
  std::vector<Measurement> best;
  /// Per interval, the median over rounds of t_K / t_off - 1.
  std::vector<double> overhead;
};

/// Runs every interval `rounds` times, the intervals taking turns run by
/// run (off, 8, 32, 128, off, 8, ...); intervals[0] must be 0, the
/// baseline. Host speed on a shared machine drifts by tens of percent
/// within seconds, so one interval's best run can fall in a fast spell
/// the others never see. The overhead therefore compares runs of one
/// round, which met the same host, and takes the median over rounds.
Sweep sweep(const Netlist& nl, const std::vector<Fault>& faults,
            const TestSequence& seq, std::size_t threads,
            const std::vector<std::size_t>& intervals,
            const std::string& sink_path, int rounds) {
  Sweep s;
  s.best.resize(intervals.size());
  for (Measurement& m : s.best) m.seconds = 1e100;
  std::vector<std::vector<double>> ratios(intervals.size());
  for (int rep = 0; rep < rounds; ++rep) {
    double base = 0;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      const Measurement m =
          run_once(nl, faults, seq, threads, intervals[i], sink_path);
      if (i == 0) base = m.seconds;
      ratios[i].push_back(m.seconds / base);
      if (m.seconds < s.best[i].seconds) s.best[i] = m;
    }
  }
  for (std::vector<double>& r : ratios) {
    const auto mid = r.begin() + static_cast<std::ptrdiff_t>(r.size() / 2);
    std::nth_element(r.begin(), mid, r.end());
    s.overhead.push_back(*mid - 1.0);
  }
  return s;
}

}  // namespace

int main() {
  print_preamble("checkpoint ablation",
                 "cost of campaign resumability vs interval K");

  const std::size_t threads =
      static_cast<std::size_t>(env_int("MOTSIM_THREADS", 2));
  const std::size_t vectors =
      static_cast<std::size_t>(env_int("MOTSIM_VECTORS", 96));
  const int rounds = 31;

  std::vector<std::string> names{"s526"};
  if (full_mode()) {
    names.push_back("s1238");
    names.push_back("s1423");
  }
  const std::string sink_path =
      (std::filesystem::temp_directory_path() / "motsim_ckpt_bench.log")
          .string();

  bool budget_met = true;
  for (const std::string& name : names) {
    const Netlist nl = make_benchmark(name);
    const CollapsedFaultList faults(nl);
    Rng rng(workload_seed());
    const TestSequence seq = random_sequence(nl, vectors, rng);
    std::printf("%s: %zu faults, %zu vectors, %zu threads, %d rounds "
                "(time: best run; overhead: median same-round ratio)\n",
                name.c_str(), faults.size(), seq.size(), threads, rounds);
    std::printf("  %6s %9s %9s %10s %7s %9s\n", "K", "detected", "time[s]",
                "overhead", "syncs", "records");

    const std::vector<std::size_t> intervals{0, 8, 32, 128};
    const Sweep sw = sweep(nl, faults.faults(), seq, threads, intervals,
                           sink_path, rounds);
    const Measurement& base = sw.best[0];
    std::printf("  %6s %9zu %9.3f %10s %7zu %9s\n", "off", base.detected,
                base.seconds, "-", base.syncs, "-");

    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const std::size_t k = intervals[i];
      const Measurement& m = sw.best[i];
      const double overhead = sw.overhead[i];
      std::printf("  %6zu %9zu %9.3f %9.1f%% %7zu %9zu\n", k, m.detected,
                  m.seconds, overhead * 100.0, m.syncs, m.records);
      if (k == 32 && overhead >= 0.05) {
        std::fprintf(stderr,
                     "BUDGET VIOLATION: %s K=32 costs %.1f%% (budget 5%%)\n",
                     name.c_str(), overhead * 100.0);
        budget_met = false;
      }
    }
    std::printf("\n");
  }
  std::remove(sink_path.c_str());
  if (!budget_met) return 1;
  std::printf("checkpoint overhead at the default interval (K=32) is "
              "within the 5%% budget.\n");
  return 0;
}
