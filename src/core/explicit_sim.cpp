#include "core/explicit_sim.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/telemetry.h"
#include "util/stopwatch.h"

namespace motsim {

namespace {

/// One node's values over every initial state: bit s % 64 of word
/// s / 64 is the node's value when the machine starts in state s
/// (flip-flop i holding bit i of s). With fewer than 64 states the
/// word repeats the pattern of the valid ones, so a plane is constant
/// over the valid states exactly when every word is 0 or all ones.
template <std::size_t W>
struct Plane {
  std::array<std::uint64_t, W> w;

  static Plane fill(bool v) {
    Plane p;
    p.w.fill(v ? ~std::uint64_t{0} : 0);
    return p;
  }
  friend Plane operator&(Plane a, const Plane& b) {
    for (std::size_t k = 0; k < W; ++k) a.w[k] &= b.w[k];
    return a;
  }
  friend Plane operator|(Plane a, const Plane& b) {
    for (std::size_t k = 0; k < W; ++k) a.w[k] |= b.w[k];
    return a;
  }
  friend Plane operator^(Plane a, const Plane& b) {
    for (std::size_t k = 0; k < W; ++k) a.w[k] ^= b.w[k];
    return a;
  }
  friend Plane operator~(Plane a) {
    for (std::size_t k = 0; k < W; ++k) a.w[k] = ~a.w[k];
    return a;
  }
  friend bool operator==(const Plane&, const Plane&) = default;

  [[nodiscard]] bool any() const {
    std::uint64_t acc = 0;
    for (const std::uint64_t x : w) acc |= x;
    return acc != 0;
  }
  /// 0 or 1 when every initial state gives that value, -1 otherwise.
  [[nodiscard]] int constant() const {
    if (!any()) return 0;
    for (const std::uint64_t x : w) {
      if (x != ~std::uint64_t{0}) return -1;
    }
    return 1;
  }
  [[nodiscard]] bool bit(std::size_t s) const {
    return ((w[s / 64] >> (s % 64)) & 1) != 0;
  }
};

template <std::size_t W>
struct PlaneOps {
  using P = Plane<W>;
  static P and_(const P& a, const P& b) { return a & b; }
  static P or_(const P& a, const P& b) { return a | b; }
  static P xor_(const P& a, const P& b) { return a ^ b; }
  static P not_(const P& a) { return ~a; }
  static P zero() { return P::fill(false); }
  static P one() { return P::fill(true); }
  static P x() { return P::fill(false); }
};

/// Present-state plane of flip-flop i before the first frame: word k
/// covers states 64k .. 64k + 63.
template <std::size_t W>
Plane<W> initial_state(std::size_t i) {
  static constexpr std::array<std::uint64_t, 6> kLow = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  Plane<W> p;
  for (std::size_t k = 0; k < W; ++k) {
    p.w[k] = i < kLow.size()         ? kLow[i]
             : ((k >> (i - 6)) & 1) ? ~std::uint64_t{0}
                                     : 0;
  }
  return p;
}

/// Evaluates one compiled gate; `get(node)` returns an operand plane.
template <std::size_t W, typename Get>
Plane<W> eval_gate(const LevelizedCircuit& lc, const LevGate& g, Get&& get) {
  if ((g.and_form & kAndFormValid) != 0) {
    const auto mask = [&g](std::uint8_t flag) {
      return (g.and_form & flag) != 0 ? ~std::uint64_t{0} : 0;
    };
    const std::uint64_t m0 = mask(kAndFormInvIn0);
    const std::uint64_t m1 = mask(kAndFormInvIn1);
    const std::uint64_t mo = mask(kAndFormInvOut);
    const Plane<W>& a = get(g.in0);
    const Plane<W>& b = get(g.in1);
    Plane<W> r;
    for (std::size_t k = 0; k < W; ++k) {
      r.w[k] = ((a.w[k] ^ m0) & (b.w[k] ^ m1)) ^ mo;
    }
    return r;
  }
  return eval_lev_gate<PlaneOps<W>>(
      g.op, g.arity,
      [&](std::size_t i) -> Plane<W> { return get(lc.fanin(g, i)); });
}

constexpr std::uint32_t kNone = 0xFFFFFFFFu;

/// Where a fault acts, resolved once against the compiled circuit.
struct Injection {
  NodeIndex stem = kNoNode;  ///< stem fault: this node carries the value
  std::uint32_t gate = kNone;   ///< branch fault on this gate's input pin
  std::uint32_t pin = 0;
  std::uint32_t latch = kNone;  ///< branch fault on this flip-flop's D pin
  bool value = false;
};

Injection resolve(const LevelizedCircuit& lc, const Fault& f) {
  Injection inj;
  inj.value = f.stuck_value;
  if (f.site.is_stem()) {
    inj.stem = f.site.node;
  } else if (lc.gate_of()[f.site.node] != LevelizedCircuit::kNoGate) {
    inj.gate = lc.gate_of()[f.site.node];
    inj.pin = f.site.pin;
  } else {
    inj.latch = lc.netlist().dff_position(f.site.node);
  }
  return inj;
}

/// The frame loop over one plane width: W words hold the 2^n states.
template <std::size_t W>
class Engine {
 public:
  using P = Plane<W>;

  /// MOT: a fault-free output-prefix class and the faulty initial
  /// states whose output prefix still equals that class's.
  struct Entry {
    std::uint32_t cls;
    P y;
  };

  struct Live {
    std::size_t index;
    Injection inj;
    std::array<P, ExplicitStateSim::kMaxDffs> state;  ///< faulty present state
    P consistent;                ///< rMOT: faulty states matching so far
    std::vector<Entry> classes;  ///< MOT: matched fault-free classes
  };

  Engine(const LevelizedCircuit& lc, Strategy strategy)
      : lc_(lc),
        strategy_(strategy),
        dffs_(lc.dffs().size()),
        states_(std::size_t{1} << dffs_),
        good_(lc.netlist().node_count()),
        state_(dffs_),
        fval_(lc.netlist().node_count()),
        stamp_(lc.netlist().node_count(), 0),
        sched_((lc.gates().size() + 63) / 64, 0) {
    for (const auto& [node, v] : lc.consts()) {
      good_[node] = P::fill(v == Val3::One);
    }
    for (std::size_t i = 0; i < dffs_; ++i) state_[i] = initial_state<W>(i);
    if (strategy_ == Strategy::Mot) {
      class_of_.assign(states_, 0);
      vec_of_.resize(states_);
      remap_.resize(2 * states_);
      remap_stamp_.assign(2 * states_, 0);
      seen_.assign(states_, 0);
      child_id_.resize(states_);
      mask_.resize(states_);
      mask_stamp_.assign(states_, 0);
    }
  }

  [[nodiscard]] Live make_live(std::size_t index, const Fault& f) const {
    Live lf{index, resolve(lc_, f), {}, P::fill(true), {}};
    std::copy(state_.begin(), state_.end(), lf.state.begin());
    if (strategy_ == Strategy::Mot) lf.classes.push_back({0, P::fill(true)});
    return lf;
  }

  /// Simulates the fault-free machine over one frame for every initial
  /// state, and under MOT refines the output-prefix classes by it.
  void good_frame(const std::vector<Val3>& inputs) {
    const std::vector<NodeIndex>& pis = lc_.inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      good_[pis[i]] = P::fill(inputs[i] == Val3::One);
    }
    for (std::size_t i = 0; i < dffs_; ++i) good_[lc_.dffs()[i]] = state_[i];
    const auto get = [this](NodeIndex m) -> const P& { return good_[m]; };
    for (const LevGate& g : lc_.gates()) {
      good_[g.node] = eval_gate<W>(lc_, g, get);
    }
    if (strategy_ == Strategy::Mot) refine_classes();
  }

  /// Simulates fault `lf` through the current frame, updates its
  /// detection data and latches its next state. Returns true when the
  /// fault is detected.
  bool fault_frame(Live& lf) {
    propagate(lf);
    bool detected = false;
    switch (strategy_) {
      case Strategy::Sot:
        detected = detect_sot();
        break;
      case Strategy::Rmot:
        detected = update_rmot(lf.consistent);
        break;
      case Strategy::Mot:
        detected = update_mot(lf.classes);
        break;
    }
    const P sv = P::fill(lf.inj.value);
    for (std::size_t i = 0; i < dffs_; ++i) {
      lf.state[i] = i == lf.inj.latch ? sv : fval(lc_.dff_d()[i]);
    }
    return detected;
  }

  /// Latches the fault-free next state; call after every fault_frame()
  /// of the frame.
  void advance() {
    for (std::size_t i = 0; i < dffs_; ++i) {
      state_[i] = good_[lc_.dff_d()[i]];
    }
  }

  /// True when the fault-free state is the same from every initial
  /// state.
  [[nodiscard]] bool good_settled() const { return settled(state_.data()); }

  /// True when the fault's state is the same from every initial state.
  [[nodiscard]] bool fault_settled(const Live& lf) const {
    return settled(lf.state.data());
  }

  [[nodiscard]] bool same_state(const Live& lf) const {
    return std::equal(state_.begin(), state_.end(), lf.state.begin());
  }

 private:
  [[nodiscard]] bool settled(const P* state) const {
    for (std::size_t i = 0; i < dffs_; ++i) {
      if (state[i].constant() < 0) return false;
    }
    return true;
  }

  [[nodiscard]] const P& fval(NodeIndex m) const {
    return stamp_[m] == epoch_ ? fval_[m] : good_[m];
  }

  [[nodiscard]] bool diverged(NodeIndex m) const {
    return stamp_[m] == epoch_ && fval_[m] != good_[m];
  }

  /// Sparse faulty-machine evaluation: seeds the fault's state
  /// divergences and its site, then evaluates in level order only the
  /// gates whose inputs differ from the fault-free machine.
  void propagate(const Live& lf) {
    const std::vector<LevGate>& gates = lc_.gates();
    const Injection& inj = lf.inj;
    ++epoch_;
    std::size_t lo = sched_.size();
    const auto set = [this](NodeIndex m, const P& v) {
      fval_[m] = v;
      stamp_[m] = epoch_;
    };
    const auto schedule = [&](std::uint32_t gi) {
      sched_[gi / 64] |= std::uint64_t{1} << (gi % 64);
      lo = std::min<std::size_t>(lo, gi / 64);
    };
    const auto schedule_fanouts = [&](NodeIndex m) {
      const auto [fo, fe] = lc_.fanout_gates(m);
      for (const std::uint32_t* it = fo; it != fe; ++it) schedule(*it);
    };
    for (std::size_t i = 0; i < dffs_; ++i) {
      if (lf.state[i] != state_[i]) {
        set(lc_.dffs()[i], lf.state[i]);
        schedule_fanouts(lc_.dffs()[i]);
      }
    }
    const P sv = P::fill(inj.value);
    if (inj.stem != kNoNode && fval(inj.stem) != sv) {
      set(inj.stem, sv);
      schedule_fanouts(inj.stem);
    }
    if (inj.gate != kNone) schedule(inj.gate);

    // Fanouts sit at higher levels, hence at higher gate indices, so
    // one ascending sweep evaluates every scheduled gate after its
    // inputs.
    const auto get = [this](NodeIndex m) -> const P& { return fval(m); };
    for (std::size_t w = lo; w < sched_.size(); ++w) {
      while (sched_[w] != 0) {
        const auto gi = static_cast<std::uint32_t>(
            64 * w + static_cast<std::size_t>(std::countr_zero(sched_[w])));
        sched_[w] &= sched_[w] - 1;
        const LevGate& g = gates[gi];
        if (g.node == inj.stem) continue;  // the stuck value holds
        const P v =
            gi == inj.gate
                ? eval_lev_gate<PlaneOps<W>>(
                      g.op, g.arity,
                      [&](std::size_t i) -> P {
                        return i == inj.pin ? sv : fval(lc_.fanin(g, i));
                      })
                : eval_gate<W>(lc_, g, get);
        if (v != good_[g.node]) {
          set(g.node, v);
          schedule_fanouts(g.node);
        }
      }
    }
  }

  /// SOT: some output is a constant in the fault-free machine and the
  /// opposite constant in the faulty one.
  [[nodiscard]] bool detect_sot() const {
    for (const NodeIndex n : lc_.outputs()) {
      if (!diverged(n)) continue;
      const int c = good_[n].constant();
      if (c >= 0 && fval_[n].constant() == 1 - c) return true;
    }
    return false;
  }

  /// rMOT: keeps the faulty states that match every output whose
  /// fault-free value is a constant; detected when none is left.
  bool update_rmot(P& consistent) const {
    for (const NodeIndex n : lc_.outputs()) {
      if (!diverged(n)) continue;
      const int c = good_[n].constant();
      if (c < 0) continue;
      consistent = consistent & (c == 1 ? fval_[n] : ~fval_[n]);
      if (!consistent.any()) return true;
    }
    return false;
  }

  /// MOT (Lemma 1): each matched class passes its faulty states on to
  /// its children, keeping those whose faulty outputs this frame equal
  /// the child's fault-free output vector; detected when no pair of a
  /// fault-free and a faulty initial state has matched so far.
  bool update_mot(std::vector<Entry>& classes) {
    bool outputs_diverged = false;
    for (const NodeIndex n : lc_.outputs()) {
      if (diverged(n)) {
        outputs_diverged = true;
        break;
      }
    }
    // One output vector and no faulty output difference: every class
    // is its own only child and every faulty state keeps matching.
    if (!outputs_diverged && vec_count_ == 1) return false;
    next_.clear();
    for (const Entry& e : classes) {
      for (std::uint32_t j = child_begin_[e.cls]; j < child_begin_[e.cls + 1];
           ++j) {
        const auto [cls, vec] = children_[j];
        const P y =
            e.y & (outputs_diverged ? faulty_vector(vec) : vec_mask_[vec]);
        if (y.any()) next_.push_back({cls, y});
      }
    }
    classes.swap(next_);
    return classes.empty();
  }

  /// Faulty states whose outputs this frame equal fault-free output
  /// vector `vec`; memoized per fault-frame.
  const P& faulty_vector(std::uint32_t vec) {
    if (mask_stamp_[vec] != epoch_) {
      mask_stamp_[vec] = epoch_;
      P m = P::fill(true);
      for (const NodeIndex n : lc_.outputs()) {
        const P& f = fval(n);
        m = m & (good_[n].bit(vec_rep_[vec]) ? f : ~f);
      }
      mask_[vec] = m;
    }
    return mask_[vec];
  }

  /// Splits every output-prefix class by this frame's fault-free output
  /// vector. Ids stay dense; both splits go one output at a time, so
  /// they are exact for any output count.
  void refine_classes() {
    // Output-vector ids of the valid states.
    std::fill(vec_of_.begin(), vec_of_.end(), 0);
    vec_count_ = 1;
    for (const NodeIndex n : lc_.outputs()) {
      const P& g = good_[n];
      if (g.constant() >= 0) continue;
      ++remap_epoch_;
      std::uint32_t count = 0;
      for (std::size_t s = 0; s < states_; ++s) {
        const std::size_t key = 2 * vec_of_[s] + (g.bit(s) ? 1 : 0);
        if (remap_stamp_[key] != remap_epoch_) {
          remap_stamp_[key] = remap_epoch_;
          remap_[key] = count++;
        }
        vec_of_[s] = remap_[key];
      }
      vec_count_ = count;
    }
    vec_rep_.assign(vec_count_, kNone);
    for (std::size_t s = 0; s < states_; ++s) {
      if (vec_rep_[vec_of_[s]] == kNone) {
        vec_rep_[vec_of_[s]] = static_cast<std::uint32_t>(s);
      }
    }
    vec_mask_.assign(vec_count_, P::fill(true));
    if (vec_count_ > 1) {
      for (std::uint32_t k = 0; k < vec_count_; ++k) {
        for (const NodeIndex n : lc_.outputs()) {
          const P& g = good_[n];
          vec_mask_[k] = vec_mask_[k] & (g.bit(vec_rep_[k]) ? g : ~g);
        }
      }
    }
    if (vec_count_ == 1) {  // no class splits: each is its own child
      child_begin_.resize(class_count_ + 1);
      children_.resize(class_count_);
      for (std::uint32_t c = 0; c < class_count_; ++c) {
        child_begin_[c] = c;
        children_[c] = {c, 0};
      }
      child_begin_[class_count_] = static_cast<std::uint32_t>(class_count_);
      return;
    }

    // Class members in state order (counting sort), then each class's
    // children in order of their first state.
    member_begin_.assign(class_count_ + 1, 0);
    for (std::size_t s = 0; s < states_; ++s) ++member_begin_[class_of_[s] + 1];
    for (std::size_t c = 0; c < class_count_; ++c) {
      member_begin_[c + 1] += member_begin_[c];
    }
    members_.resize(states_);
    fill_.assign(member_begin_.begin(), member_begin_.end() - 1);
    for (std::size_t s = 0; s < states_; ++s) {
      members_[fill_[class_of_[s]]++] = static_cast<std::uint32_t>(s);
    }
    child_begin_.assign(class_count_ + 1, 0);
    children_.clear();
    std::uint32_t count = 0;
    for (std::size_t c = 0; c < class_count_; ++c) {
      child_begin_[c] = static_cast<std::uint32_t>(children_.size());
      ++seen_epoch_;
      for (std::uint32_t j = member_begin_[c]; j < member_begin_[c + 1]; ++j) {
        const std::uint32_t s = members_[j];
        const std::uint32_t k = vec_of_[s];
        if (seen_[k] != seen_epoch_) {
          seen_[k] = seen_epoch_;
          child_id_[k] = count++;
          children_.emplace_back(child_id_[k], k);
        }
        class_of_[s] = child_id_[k];
      }
    }
    child_begin_[class_count_] = static_cast<std::uint32_t>(children_.size());
    class_count_ = count;
  }

  const LevelizedCircuit& lc_;
  Strategy strategy_;
  std::size_t dffs_;
  std::size_t states_;
  std::vector<P> good_;   ///< fault-free plane per node, this frame
  std::vector<P> state_;  ///< fault-free present state
  // Faulty scratch: a node's plane is valid when its stamp equals the
  // current epoch, else the node carries the fault-free plane.
  std::vector<P> fval_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> sched_;  ///< one pending bit per gate

  // MOT: output-prefix classes of the valid states and the output
  // vectors of the current frame.
  std::vector<std::uint32_t> class_of_;
  std::size_t class_count_ = 1;
  std::vector<std::uint32_t> vec_of_;
  std::uint32_t vec_count_ = 1;
  std::vector<std::uint32_t> vec_rep_;
  std::vector<P> vec_mask_;  ///< fault-free states with each vector
  /// Children of each class of the previous frame as (class, vector),
  /// CSR by the previous class.
  std::vector<std::uint32_t> child_begin_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> children_;
  std::vector<std::uint32_t> remap_, remap_stamp_;
  std::uint32_t remap_epoch_ = 0;
  std::vector<std::uint32_t> seen_, child_id_;
  std::uint32_t seen_epoch_ = 0;
  std::vector<std::uint32_t> member_begin_, members_, fill_;
  std::vector<P> mask_;
  std::vector<std::uint32_t> mask_stamp_;
  std::vector<Entry> next_;
};

}  // namespace

ExplicitStateSim::ExplicitStateSim(
    std::shared_ptr<const LevelizedCircuit> circuit, std::vector<Fault> faults,
    const SimOptions& options)
    : circuit_(std::move(circuit)),
      faults_(std::move(faults)),
      options_(options.validated()),
      initial_status_(faults_.size(), FaultStatus::Undetected) {
  if (circuit_ == nullptr) {
    throw std::invalid_argument("ExplicitStateSim: no circuit");
  }
  if (circuit_->dffs().size() > kMaxDffs) {
    throw std::invalid_argument(
        "ExplicitStateSim: " + std::to_string(circuit_->dffs().size()) +
        " flip-flops; at most " + std::to_string(kMaxDffs) + " supported");
  }
}

void ExplicitStateSim::set_initial_status(std::vector<FaultStatus> status) {
  if (status.size() != faults_.size()) {
    throw std::invalid_argument("set_initial_status: wrong size");
  }
  initial_status_ = std::move(status);
}

void ExplicitStateSim::set_settled_drops(
    std::vector<std::uint32_t> exact_from,
    std::vector<std::uint32_t> xred_settled_from) {
  for (const auto* v : {&exact_from, &xred_settled_from}) {
    if (!v->empty() && v->size() != faults_.size()) {
      throw std::invalid_argument("set_settled_drops: vector does not "
                                  "match the fault list");
    }
  }
  exact_from_ = std::move(exact_from);
  xred_settled_from_ = std::move(xred_settled_from);
}

HybridResult ExplicitStateSim::run(
    const std::vector<std::vector<Val3>>& sequence) {
  const std::size_t width = circuit_->inputs().size();
  for (const std::vector<Val3>& v : sequence) {
    if (v.size() != width || !std::all_of(v.begin(), v.end(), is_binary)) {
      throw std::invalid_argument(
          "ExplicitStateSim: every input vector must be binary and hold " +
          std::to_string(width) + " values");
    }
  }
  const std::size_t dffs = circuit_->dffs().size();
  if (dffs <= 6) return run_words<1>(sequence);
  if (dffs == 7) return run_words<2>(sequence);
  return run_words<4>(sequence);
}

template <std::size_t W>
HybridResult ExplicitStateSim::run_words(
    const std::vector<std::vector<Val3>>& sequence) {
  obs::Telemetry* const telemetry = options_.telemetry;
  const obs::SpanTracer::Span span = obs::open_span(telemetry, "explicit");
  const Stopwatch timer;

  Engine<W> engine(*circuit_, options_.strategy);
  HybridResult result;
  result.status = initial_status_;
  result.detect_frame.assign(faults_.size(), 0);
  std::vector<typename Engine<W>::Live> live;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    if (initial_status_[i] == FaultStatus::Undetected) {
      live.push_back(engine.make_live(i, faults_[i]));
    }
  }

  const FaultStatus det = detected_status(options_.strategy);
  const bool drop_settled = !exact_from_.empty() || !xred_settled_from_.empty();
  std::size_t t = 0;
  const auto proven_by = [&t](const std::vector<std::uint32_t>& from,
                              std::size_t fi) {
    return !from.empty() && from[fi] != 0 && from[fi] <= t;
  };
  while (t < sequence.size() && !live.empty()) {
    engine.good_frame(sequence[t]);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const std::size_t fi = live[i].index;
      if (engine.fault_frame(live[i])) {
        result.status[fi] = det;
        result.detect_frame[fi] = static_cast<std::uint32_t>(t + 1);
        ++result.detected_count;
        if (progress_) progress_->on_fault_detected(fi, result.detect_frame[fi]);
        continue;
      }
      if (keep != i) live[keep] = std::move(live[i]);
      ++keep;
    }
    live.resize(keep);
    engine.advance();
    ++t;
    ++result.symbolic_frames;

    // Settled drops: the rest of the sequence cannot detect these
    // faults (set_settled_drops).
    if (drop_settled && t < sequence.size() && engine.good_settled()) {
      keep = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t fi = live[i].index;
        if (engine.fault_settled(live[i])) {
          if (proven_by(exact_from_, fi)) {
            ++result.x01_exact_drops;
            continue;
          }
          if (proven_by(xred_settled_from_, fi) && engine.same_state(live[i])) {
            ++result.xred_settled_drops;
            continue;
          }
        }
        if (keep != i) live[keep] = std::move(live[i]);
        ++keep;
      }
      live.resize(keep);
    }
    if (progress_) progress_->on_frame(t, 0, live.size());
  }

  if (telemetry != nullptr) {
    obs::MetricsRegistry& m = telemetry->metrics;
    m.counter("explicit.runs").add(1);
    m.counter("hybrid.symbolic_frames").add(result.symbolic_frames);
    m.gauge("hybrid.symbolic_seconds").add(timer.elapsed_seconds());
  }
  return result;
}

}  // namespace motsim
