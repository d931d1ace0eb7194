#include "core/xred.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/ffr.h"
#include "sim3/good_sim3.h"

namespace motsim {

XRedResult::XRedResult(SiteTable sites, std::vector<Val4> ix,
                       std::vector<std::uint8_t> ob,
                       std::uint32_t settled_from)
    : sites_(std::move(sites)),
      ix_(std::move(ix)),
      ob_(std::move(ob)),
      settled_from_(settled_from) {}

bool XRedResult::is_x_redundant(const Fault& f) const {
  const std::size_t site = sites_.site_of(f.site);
  const Val4 v = ix_[site];
  if (ob_[site] == 0) return true;
  if (v == Val4::X) return true;
  // Activation: a stuck-at-0 fault needs the lead to carry 1 somewhere
  // in the fault-free simulation, and vice versa.
  if (!f.stuck_value && !saw_one(v)) return true;
  if (f.stuck_value && !saw_zero(v)) return true;
  return false;
}

std::size_t XRedResult::count_x_redundant(
    const std::vector<Fault>& faults) const {
  std::size_t n = 0;
  for (const Fault& f : faults) {
    if (is_x_redundant(f)) ++n;
  }
  return n;
}

std::vector<FaultStatus> XRedResult::classify(
    const std::vector<Fault>& faults) const {
  std::vector<FaultStatus> status(faults.size(), FaultStatus::Undetected);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (is_x_redundant(faults[i])) status[i] = FaultStatus::XRedundant;
  }
  return status;
}

XRedResult run_id_x_red(const Netlist& nl,
                        const std::vector<std::vector<Val3>>& sequence,
                        const XRedOptions& options) {
  if (!nl.finalized()) {
    throw std::logic_error("run_id_x_red requires a finalized netlist");
  }
  const SiteTable sites(nl);
  std::vector<Val4> ix(sites.site_count(), Val4::X);

  // ---- Step 1: true-value simulation folded into I_X ------------------
  // settled_from: an X input (or a malformed vector) voids every
  // earlier candidate; an X-free state after a frame makes that frame
  // one, and binary inputs keep the state X-free from there on.
  GoodSim3 good(nl);
  std::uint32_t settled_from = 0;
  const auto binary_state = [&good] {
    return std::all_of(good.state().begin(), good.state().end(), is_binary);
  };
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    const std::vector<Val3>& vec = sequence[k];
    if (vec.size() != nl.input_count() ||
        !std::all_of(vec.begin(), vec.end(), is_binary)) {
      settled_from = 0;
    }
    good.step(vec);
    const std::vector<Val3>& values = good.values();
    for (NodeIndex n = 0; n < nl.node_count(); ++n) {
      ix[sites.stem_site(n)] = accumulate(ix[sites.stem_site(n)], values[n]);
    }
    if (!binary_state()) {
      settled_from = 0;
    } else if (settled_from == 0) {
      settled_from = static_cast<std::uint32_t>(k + 1);
    }
  }
  // Branches start with their source stem's summary.
  for (NodeIndex n = 0; n < nl.node_count(); ++n) {
    const Gate& g = nl.gate(n);
    for (std::uint32_t p = 0; p < g.fanins.size(); ++p) {
      ix[sites.branch_site(n, p)] = ix[sites.stem_site(g.fanins[p])];
    }
  }

  // ---- Step 2: iterated backward {X} pass -----------------------------
  // Reverse topological sweeps until the fixpoint: consumers first, so
  // one sweep pushes {X} from outputs toward inputs; the flip-flop rule
  // (Q-stem {X} lowers the D-branch) couples consecutive frames and is
  // what makes iteration necessary.
  const auto& topo = nl.topo_order();
  bool changed = options.backward_pass;
  while (changed) {
    changed = false;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const NodeIndex n = *it;

      // Stem rule: a non-PO stem whose every branch is {X} — or that
      // has no sink at all — can never be observed.
      const std::size_t stem = sites.stem_site(n);
      if (!nl.is_output(n) && ix[stem] != Val4::X) {
        bool all_x = true;
        for (const FanoutRef& fo : nl.fanouts(n)) {
          if (ix[sites.branch_site(fo.node, fo.pin)] != Val4::X) {
            all_x = false;
            break;
          }
        }
        if (all_x) {
          ix[stem] = Val4::X;
          changed = true;
        }
      }

      // Gate rule (covers flip-flops too): if the output stem is {X},
      // the input branches cannot contribute an observable value.
      if (ix[stem] == Val4::X) {
        const Gate& g = nl.gate(n);
        for (std::uint32_t p = 0; p < g.fanins.size(); ++p) {
          const std::size_t branch = sites.branch_site(n, p);
          if (ix[branch] != Val4::X) {
            ix[branch] = Val4::X;
            changed = true;
          }
        }
      }
    }
  }

  // ---- Step 3: observability inside fanout-free regions ---------------
  std::vector<std::uint8_t> ob(sites.site_count(), 1);
  if (!options.observability) {
    return XRedResult(sites, std::move(ix), std::move(ob), settled_from);
  }
  const FanoutFreeRegions regions(nl);

  // Region heads: observable at the region output iff not {X}.
  for (NodeIndex head : regions.heads()) {
    ob[sites.stem_site(head)] =
        ix[sites.stem_site(head)] == Val4::X ? 0 : 1;
  }

  for (NodeIndex head : regions.heads()) {
    for (NodeIndex n : regions.members_backward(head)) {
      const Gate& g = nl.gate(n);
      if (is_frame_input(g.type) || g.type == GateType::Dff) continue;
      const bool out_ob = ob[sites.stem_site(n)] != 0;
      for (std::uint32_t p = 0; p < g.fanins.size(); ++p) {
        bool in_ob = out_ob;
        if (in_ob) {
          switch (g.type) {
            case GateType::And:
            case GateType::Nand:
              // Siblings must each assume the non-controlling value 1.
              for (std::uint32_t q = 0; in_ob && q < g.fanins.size(); ++q) {
                if (q != p && !saw_one(ix[sites.branch_site(n, q)])) {
                  in_ob = false;
                }
              }
              break;
            case GateType::Or:
            case GateType::Nor:
              // Siblings must each assume the non-controlling value 0.
              for (std::uint32_t q = 0; in_ob && q < g.fanins.size(); ++q) {
                if (q != p && !saw_zero(ix[sites.branch_site(n, q)])) {
                  in_ob = false;
                }
              }
              break;
            case GateType::Xor:
            case GateType::Xnor:
              // A sibling that never goes binary blocks propagation.
              for (std::uint32_t q = 0; in_ob && q < g.fanins.size(); ++q) {
                if (q != p && ix[sites.branch_site(n, q)] == Val4::X) {
                  in_ob = false;
                }
              }
              break;
            default:
              break;  // BUF/NOT: inherits output observability
          }
        }
        ob[sites.branch_site(n, p)] = in_ob ? 1 : 0;
        // A fanout-free source net is the same lead as this branch.
        const NodeIndex src = g.fanins[p];
        if (nl.fanouts(src).size() == 1 && !nl.is_output(src)) {
          ob[sites.stem_site(src)] = in_ob ? 1 : 0;
        }
      }
    }
  }

  return XRedResult(sites, std::move(ix), std::move(ob), settled_from);
}

}  // namespace motsim
