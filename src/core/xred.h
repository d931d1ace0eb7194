#ifndef MOTSIM_CORE_XRED_H
#define MOTSIM_CORE_XRED_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "faults/fault.h"
#include "faults/fault_list.h"
#include "logic/val3.h"
#include "logic/val4.h"

namespace motsim {

/// Result of the ID_X-red procedure (paper Section III).
///
/// For every lead (stem and branch, numbered by SiteTable) it exposes
/// the final four-valued I_X summary and the fanout-free-region
/// observability OB, plus the derived per-fault verdict: a fault
/// flagged X-redundant cannot be detected *by the given test sequence*
/// under three-valued logic and the SOT strategy, so the three-valued
/// fault simulator may skip it.
class XRedResult {
 public:
  XRedResult(SiteTable sites, std::vector<Val4> ix,
             std::vector<std::uint8_t> ob, std::uint32_t settled_from);

  /// I_X value of a lead.
  [[nodiscard]] Val4 ix(const FaultSite& s) const {
    return ix_[sites_.site_of(s)];
  }
  /// Observability (inside its fanout-free region) of a lead.
  [[nodiscard]] bool observable(const FaultSite& s) const {
    return ob_[sites_.site_of(s)] != 0;
  }

  /// Step 4's sufficient undetectability condition:
  /// s-a-0 at l is X-redundant if I_X(l) is {X} or {X,0}, or OB(l)=0;
  /// s-a-1 at l is X-redundant if I_X(l) is {X} or {X,1}, or OB(l)=0.
  [[nodiscard]] bool is_x_redundant(const Fault& f) const;

  /// Number of X-redundant faults in `faults`.
  [[nodiscard]] std::size_t count_x_redundant(
      const std::vector<Fault>& faults) const;

  /// Maps a fault list to initial statuses for FaultSim3: XRedundant
  /// where flagged, Undetected otherwise.
  [[nodiscard]] std::vector<FaultStatus> classify(
      const std::vector<Fault>& faults) const;

  [[nodiscard]] const SiteTable& sites() const noexcept { return sites_; }

  /// The first frame k (1-based) after which step 1's fault-free
  /// machine has an X-free state and every later input vector is
  /// binary; 0 = never. From frame k on the three-valued values the
  /// summaries fold are the exact ones, so a flagged fault whose
  /// faulty state equals the fault-free one after some frame t >= k
  /// stays equal for the rest of the sequence (docs/ALGORITHMS.md).
  [[nodiscard]] std::uint32_t settled_from() const noexcept {
    return settled_from_;
  }

 private:
  SiteTable sites_;
  std::vector<Val4> ix_;
  std::vector<std::uint8_t> ob_;
  std::uint32_t settled_from_ = 0;
};

/// Ablation switches for run_id_x_red (the full procedure enables
/// everything; the ablation benchmark measures each step's
/// contribution).
struct XRedOptions {
  /// Step 2: iterated backward {X} pass.
  bool backward_pass = true;
  /// Step 3: fanout-free-region observability.
  bool observability = true;
};

/// Runs the four steps of ID_X-red for the given test sequence:
///
///  1. three-valued true-value simulation, folded per lead into the
///     four-valued I_X lattice ({X} / {X,0} / {X,1} / {X,0,1});
///  2. iterated backward pass lowering leads to {X} when all paths to
///     a primary or secondary output are blocked by {X} leads
///     (flip-flops close the sequential loop: a D-branch is lowered
///     when the corresponding Q-stem is {X});
///  3. backward observability OB inside each fanout-free region (an
///     AND input is observable only if every sibling ever carries a 1,
///     an OR input only if every sibling ever carries a 0, an XOR
///     input only if no sibling is stuck at {X});
///  4. verdict per fault (see XRedResult::is_x_redundant).
///
/// Run time: O(|C|·|Z|) for step 1 and O(|C|) per backward sweep —
/// negligible next to three-valued fault simulation, which is the
/// point of Table I.
[[nodiscard]] XRedResult run_id_x_red(
    const Netlist& netlist, const std::vector<std::vector<Val3>>& sequence,
    const XRedOptions& options = {});

}  // namespace motsim

#endif  // MOTSIM_CORE_XRED_H
