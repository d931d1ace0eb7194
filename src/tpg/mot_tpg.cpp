#include "tpg/mot_tpg.h"

#include "util/rng.h"

namespace motsim {

namespace {

/// Scores a sequence: faults detected under the strategy (three-valued
/// detections count too — the hybrid simulator's fallback windows and
/// the X01 phase are part of the paper's protocol).
struct Score {
  std::size_t detected = 0;
  std::vector<FaultStatus> status;
};

Score score_sequence(const Netlist& nl, const std::vector<Fault>& faults,
                     const TestSequence& seq, const MotTpgConfig& cfg) {
  Score s;
  if (seq.empty()) {
    s.status.assign(faults.size(), FaultStatus::Undetected);
    return s;
  }
  SimOptions options;
  options.strategy = cfg.strategy;
  options.node_limit = cfg.node_limit;
  HybridFaultSim sim(nl, faults, options);
  const HybridResult r = sim.run(seq);
  s.detected = r.detected_count;
  s.status = r.status;
  return s;
}

}  // namespace

MotTpgResult generate_mot_sequence(const Netlist& netlist,
                                   const std::vector<Fault>& faults,
                                   const MotTpgConfig& config) {
  Rng rng(config.seed);

  MotTpgResult result;
  Score best = score_sequence(netlist, faults, result.sequence, config);

  std::size_t stale = 0;
  while (stale < config.stale_rounds &&
         result.sequence.size() < config.max_length &&
         best.detected < faults.size()) {
    ++result.rounds;

    TestSequence best_candidate;
    Score best_score = best;
    for (std::size_t c = 0; c < config.candidates_per_round; ++c) {
      Rng seg_rng = rng.fork();
      TestSequence candidate = result.sequence;
      TestSequence segment =
          random_sequence(netlist, config.segment_length, seg_rng);
      for (auto& vec : segment) candidate.push_back(std::move(vec));

      Score s = score_sequence(netlist, faults, candidate, config);
      if (s.detected > best_score.detected) {
        best_score = std::move(s);
        best_candidate = std::move(candidate);
      }
    }

    if (!best_candidate.empty()) {
      result.sequence = std::move(best_candidate);
      best = std::move(best_score);
      stale = 0;
    } else {
      ++stale;
    }
  }

  result.detected = best.detected;
  result.status = std::move(best.status);
  return result;
}

}  // namespace motsim
