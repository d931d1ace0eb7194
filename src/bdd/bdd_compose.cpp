// Composition, renaming and quantification.
//
// `compose(f, v, g)` substitutes function g for variable v in f — the
// operation the paper uses to obtain the faulty response o^f(y,t) from
// the x-based response computed by event-driven single fault
// propagation (Section IV.A, MOT case).
//
// `rename` is the specialized fast path for order-preserving variable
// maps. The simulators interleave fault-free/faulty state variables
// (x_1, y_1, x_2, y_2, ...) precisely so the x->y substitution is
// order-preserving and runs as a single linear-time rebuild instead of
// m nested compositions.

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "bdd/bdd.h"

namespace motsim::bdd {

Bdd BddManager::compose(const Bdd& f, VarIndex v, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  ensure_vars(v + 1);  // the level lookups below must stay in bounds
  maybe_auto_gc();
  return Bdd(this, compose_rec(f.id(), v, g.id()));
}

NodeId BddManager::compose_rec(NodeId f, VarIndex v, NodeId g) {
  if (f <= kTrueId) return f;
  // Copy the node fields: the recursive calls below may grow the node
  // table and invalidate references into it.
  const Node n = nodes_[f];
  if (var2level_[n.var] > var2level_[v]) return f;  // f is below v
  if (n.var == v) {
    // Children of a v-node cannot depend on v; splice g in directly.
    return ite_rec(g, n.hi, n.lo);
  }

  // Cache key = (f, g, v): v rides in the `h` slot of the entry.
  NodeId cached;
  const NodeId key_h = static_cast<NodeId>(v);
  if (cache_lookup(Op::Compose, f, g, key_h, cached)) return cached;

  const NodeId lo = compose_rec(n.lo, v, g);
  const NodeId hi = compose_rec(n.hi, v, g);
  // The result can no longer be built with make_node(n.var, ...)
  // directly: g may depend on variables above n.var. Use ITE on the
  // projection of n.var to restore canonicity in all cases.
  const NodeId proj = make_node(n.var, kFalseId, kTrueId);
  const NodeId result = ite_rec(proj, hi, lo);
  cache_insert(Op::Compose, f, g, key_h, result);
  return result;
}

Bdd BddManager::rename(const Bdd& f, const std::vector<VarIndex>& mapping) {
  assert(f.manager() == this);
  maybe_auto_gc();

  auto mapped = [&](VarIndex v) -> VarIndex {
    return v < mapping.size() ? mapping[v] : v;
  };

  // Verify order preservation (by LEVEL, which equals the variable
  // index until someone reorders) on the support of f; the rebuild
  // below is only sound for monotone maps.
  collect_support(f.id());
  std::sort(support_vars_.begin(), support_vars_.end(),
            [&](VarIndex a, VarIndex b) {
              return var2level_[a] < var2level_[b];
            });
  for (const VarIndex v : support_vars_) ensure_vars(mapped(v) + 1);
  for (std::size_t i = 1; i < support_vars_.size(); ++i) {
    if (var2level_[mapped(support_vars_[i - 1])] >=
        var2level_[mapped(support_vars_[i])]) {
      throw std::invalid_argument(
          "BddManager::rename: mapping is not order-preserving on the "
          "support of f");
    }
  }

  // Per-call memo: the mapping varies between calls, so the global
  // computed cache cannot key it. memo_[n] is valid while stamp_[n]
  // holds this call's epoch; nodes made below are never looked up.
  const std::uint32_t done = next_epoch();
  if (memo_.size() < stamp_.size()) memo_.resize(stamp_.size());
  auto rec = [&](auto&& self, NodeId n) -> NodeId {
    if (n <= kTrueId) return n;
    if (stamp_[n] == done) return memo_[n];
    const Node node = nodes_[n];
    const NodeId lo = self(self, node.lo);
    const NodeId hi = self(self, node.hi);
    const NodeId result = make_node(mapped(node.var), lo, hi);
    stamp_[n] = done;
    memo_[n] = result;
    return result;
  };
  return Bdd(this, rec(rec, f.id()));
}

Bdd BddManager::exists(const Bdd& f, const std::vector<VarIndex>& vars) {
  assert(f.manager() == this);
  for (VarIndex v : vars) ensure_vars(v + 1);
  maybe_auto_gc();
  std::vector<VarIndex> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), [&](VarIndex a, VarIndex b) {
    return var2level_[a] < var2level_[b];
  });
  std::unordered_map<NodeId, NodeId> memo;
  return Bdd(this, quant_rec(f.id(), sorted, 0, /*existential=*/true, memo));
}

Bdd BddManager::forall(const Bdd& f, const std::vector<VarIndex>& vars) {
  assert(f.manager() == this);
  for (VarIndex v : vars) ensure_vars(v + 1);
  maybe_auto_gc();
  std::vector<VarIndex> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), [&](VarIndex a, VarIndex b) {
    return var2level_[a] < var2level_[b];
  });
  std::unordered_map<NodeId, NodeId> memo;
  return Bdd(this, quant_rec(f.id(), sorted, 0, /*existential=*/false, memo));
}

NodeId BddManager::quant_rec(NodeId f, const std::vector<VarIndex>& vars,
                             std::size_t idx, bool existential,
                             std::unordered_map<NodeId, NodeId>& memo) {
  if (f <= kTrueId) return f;
  // Skip quantification variables above the current root: f cannot
  // depend on them. After this loop the effective idx is a function of
  // f alone (vars is sorted and recursion descends in variable order),
  // so the per-call memo can be keyed by f.
  // Copied (not referenced): the recursion below can reallocate the
  // node table.
  const Node n = nodes_[f];
  while (idx < vars.size() && var2level_[vars[idx]] < var2level_[n.var]) {
    ++idx;
  }
  if (idx >= vars.size()) return f;

  if (auto it = memo.find(f); it != memo.end()) return it->second;

  NodeId result;
  if (n.var == vars[idx]) {
    const NodeId lo = quant_rec(n.lo, vars, idx + 1, existential, memo);
    const NodeId hi = quant_rec(n.hi, vars, idx + 1, existential, memo);
    result = existential ? or_rec(lo, hi) : and_rec(lo, hi);
  } else {
    const NodeId lo = quant_rec(n.lo, vars, idx, existential, memo);
    const NodeId hi = quant_rec(n.hi, vars, idx, existential, memo);
    result = make_node(n.var, lo, hi);
  }
  memo.emplace(f, result);
  return result;
}

}  // namespace motsim::bdd

namespace motsim::bdd {

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g,
                           const std::vector<VarIndex>& vars) {
  assert(f.manager() == this && g.manager() == this);
  for (VarIndex v : vars) ensure_vars(v + 1);
  maybe_auto_gc();
  std::vector<VarIndex> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), [&](VarIndex a, VarIndex b) {
    return var2level_[a] < var2level_[b];
  });
  std::unordered_map<std::uint64_t, NodeId> memo;
  return Bdd(this, and_exists_rec(f.id(), g.id(), sorted, 0, memo));
}

NodeId BddManager::and_exists_rec(
    NodeId f, NodeId g, const std::vector<VarIndex>& vars, std::size_t idx,
    std::unordered_map<std::uint64_t, NodeId>& memo) {
  // Terminal cases of the conjunction.
  if (f == kFalseId || g == kFalseId) return kFalseId;
  if (f == kTrueId && g == kTrueId) return kTrueId;
  if (f == kTrueId) {
    std::unordered_map<NodeId, NodeId> qmemo;
    return quant_rec(g, vars, idx, /*existential=*/true, qmemo);
  }
  if (g == kTrueId) {
    std::unordered_map<NodeId, NodeId> qmemo;
    return quant_rec(f, vars, idx, /*existential=*/true, qmemo);
  }

  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const VarIndex top =
      level2var_[std::min(var2level_[nf.var], var2level_[ng.var])];
  // As in quant_rec, the effective idx is a function of (f, g): skip
  // quantification variables above the top variable.
  while (idx < vars.size() &&
         var2level_[vars[idx]] < var2level_[top]) {
    ++idx;
  }
  if (idx >= vars.size()) return and_rec(f, g);

  // Commutative: canonicalize the pair for the memo key.
  NodeId kf = f, kg = g;
  if (kf > kg) std::swap(kf, kg);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(kf) << 32) | static_cast<std::uint64_t>(kg);
  if (auto it = memo.find(key); it != memo.end()) return it->second;

  const NodeId f0 = nf.var == top ? nf.lo : f;
  const NodeId f1 = nf.var == top ? nf.hi : f;
  const NodeId g0 = ng.var == top ? ng.lo : g;
  const NodeId g1 = ng.var == top ? ng.hi : g;

  NodeId result;
  if (vars[idx] == top) {
    // exists top . f & g  ==  (f0 & g0)|x=0  or  (f1 & g1)|x=1
    const NodeId lo = and_exists_rec(f0, g0, vars, idx + 1, memo);
    if (lo == kTrueId) {
      result = kTrueId;  // early termination of the disjunction
    } else {
      const NodeId hi = and_exists_rec(f1, g1, vars, idx + 1, memo);
      result = or_rec(lo, hi);
    }
  } else {
    const NodeId lo = and_exists_rec(f0, g0, vars, idx, memo);
    const NodeId hi = and_exists_rec(f1, g1, vars, idx, memo);
    result = make_node(top, lo, hi);
  }
  memo.emplace(key, result);
  return result;
}

}  // namespace motsim::bdd

namespace motsim::bdd {

Bdd BddManager::transfer(const Bdd& f, BddManager& target,
                         const std::vector<VarIndex>& mapping) {
  BddManager* source = f.manager();
  if (source == nullptr) {
    throw std::invalid_argument("transfer: null source function");
  }
  auto mapped = [&](VarIndex v) -> VarIndex {
    return v < mapping.size() ? mapping[v] : v;
  };

  // Memo holds target handles so intermediate results survive the
  // target's garbage collections during the rebuild.
  std::unordered_map<NodeId, Bdd> memo;
  auto rec = [&](auto&& self, NodeId n) -> Bdd {
    if (n == kFalseId) return target.zero();
    if (n == kTrueId) return target.one();
    if (auto it = memo.find(n); it != memo.end()) return it->second;
    const VarIndex v = mapped(source->var_of(n));
    const Bdd lo = self(self, source->low_of(n));
    const Bdd hi = self(self, source->high_of(n));
    // target.ite restores canonicity whatever the target order is.
    Bdd result = target.ite(target.var(v), hi, lo);
    memo.emplace(n, result);
    return result;
  };
  return rec(rec, f.id());
}

}  // namespace motsim::bdd
