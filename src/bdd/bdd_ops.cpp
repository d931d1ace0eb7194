// Boolean operation kernels of the OBDD package: NOT / AND / OR / XOR /
// ITE / cofactor, and the gate fold over them. Each kernel is a classic
// depth-first recursion with terminal-case short-circuits and
// memoization through the manager's computed cache. Automatic garbage
// collection runs only at the public entry points and between the
// gate fold's steps — never inside a recursion, where intermediate
// NodeIds live solely on the call stack.

#include <algorithm>
#include <cassert>

#include "bdd/bdd.h"
#include "bdd/bdd_internal.h"

namespace motsim::bdd {

namespace {
/// Orders a commutative operand pair canonically so (f,g) and (g,f)
/// share one cache entry.
inline void canonicalize(NodeId& f, NodeId& g) {
  if (f > g) std::swap(f, g);
}
}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

Bdd BddManager::apply_not(const Bdd& f) {
  assert(f.manager() == this);
  maybe_auto_gc();
  return handle(not_rec(f.id()));
}

Bdd BddManager::apply_and(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return handle(and_rec(f.id(), g.id()));
}

Bdd BddManager::apply_or(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return handle(or_rec(f.id(), g.id()));
}

Bdd BddManager::apply_xor(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return handle(xor_rec(f.id(), g.id()));
}

Bdd BddManager::apply_xnor(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  maybe_auto_gc();
  return handle(not_rec(xor_rec(f.id(), g.id())));
}

Bdd BddManager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  assert(f.manager() == this && g.manager() == this && h.manager() == this);
  maybe_auto_gc();
  return handle(ite_rec(f.id(), g.id(), h.id()));
}

Bdd BddManager::restrict_var(const Bdd& f, VarIndex v, bool value) {
  assert(f.manager() == this);
  ensure_vars(v + 1);  // the level lookup below must stay in bounds
  maybe_auto_gc();
  return handle(restrict_rec(f.id(), v, value));
}

void BddManager::maybe_auto_gc(NodeId acc) {
  if (live_count_ < next_gc_at_) return;
  const Bdd root = handle(acc);
  gc();
}

NodeId BddManager::gate_fold(GateOp op, bool negate,
                             std::span<const NodeId> operands) {
  // The handle-level fold step by step: a GC check before each
  // pairwise step, the first one (identity op x_0) included.
  NodeId acc = op == GateOp::And ? kTrueId : kFalseId;
  constexpr NodeId kNone = 0xFFFFFFFFu;  // XOR has no absorbing value
  const NodeId absorbing = op == GateOp::And  ? kFalseId
                           : op == GateOp::Or ? kTrueId
                                              : kNone;
  for (std::size_t i = 0; i < operands.size() && acc != absorbing; ++i) {
    maybe_auto_gc(acc);
    switch (op) {
      case GateOp::And:
        acc = and_rec(acc, operands[i]);
        break;
      case GateOp::Or:
        acc = or_rec(acc, operands[i]);
        break;
      case GateOp::Xor:
        acc = xor_rec(acc, operands[i]);
        break;
    }
  }
  if (negate) {
    // With one operand the only step was identity op x_0, which
    // allocates nothing: this check could not fire.
    if (operands.size() != 1) maybe_auto_gc(acc);
    acc = not_rec(acc);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

NodeId BddManager::not_rec(NodeId f) {
  if (f == kFalseId) return kTrueId;
  if (f == kTrueId) return kFalseId;

  NodeId cached;
  if (cache_lookup(Op::Not, f, 0, 0, cached)) return cached;

  const Node n = nodes_[f];
  const NodeId lo = not_rec(n.lo);
  const NodeId hi = not_rec(n.hi);
  const NodeId result = make_node(n.var, lo, hi);
  cache_insert(Op::Not, f, 0, 0, result);
  return result;
}

NodeId BddManager::and_rec(NodeId f, NodeId g) {
  if (f == kFalseId || g == kFalseId) return kFalseId;
  if (f == kTrueId) return g;
  if (g == kTrueId) return f;
  if (f == g) return f;
  canonicalize(f, g);

  NodeId cached;
  if (cache_lookup(Op::And, f, g, 0, cached)) return cached;

  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const VarIndex top_level = std::min(var2level_[nf.var], var2level_[ng.var]);
  const VarIndex top = level2var_[top_level];
  const NodeId f0 = nf.var == top ? nf.lo : f;
  const NodeId f1 = nf.var == top ? nf.hi : f;
  const NodeId g0 = ng.var == top ? ng.lo : g;
  const NodeId g1 = ng.var == top ? ng.hi : g;

  const NodeId lo = and_rec(f0, g0);
  const NodeId hi = and_rec(f1, g1);
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::And, f, g, 0, result);
  return result;
}

NodeId BddManager::or_rec(NodeId f, NodeId g) {
  if (f == kTrueId || g == kTrueId) return kTrueId;
  if (f == kFalseId) return g;
  if (g == kFalseId) return f;
  if (f == g) return f;
  canonicalize(f, g);

  NodeId cached;
  if (cache_lookup(Op::Or, f, g, 0, cached)) return cached;

  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const VarIndex top_level = std::min(var2level_[nf.var], var2level_[ng.var]);
  const VarIndex top = level2var_[top_level];
  const NodeId f0 = nf.var == top ? nf.lo : f;
  const NodeId f1 = nf.var == top ? nf.hi : f;
  const NodeId g0 = ng.var == top ? ng.lo : g;
  const NodeId g1 = ng.var == top ? ng.hi : g;

  const NodeId lo = or_rec(f0, g0);
  const NodeId hi = or_rec(f1, g1);
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::Or, f, g, 0, result);
  return result;
}

NodeId BddManager::xor_rec(NodeId f, NodeId g) {
  if (f == kFalseId) return g;
  if (g == kFalseId) return f;
  if (f == kTrueId) return not_rec(g);
  if (g == kTrueId) return not_rec(f);
  if (f == g) return kFalseId;
  canonicalize(f, g);

  NodeId cached;
  if (cache_lookup(Op::Xor, f, g, 0, cached)) return cached;

  const Node& nf = nodes_[f];
  const Node& ng = nodes_[g];
  const VarIndex top_level = std::min(var2level_[nf.var], var2level_[ng.var]);
  const VarIndex top = level2var_[top_level];
  const NodeId f0 = nf.var == top ? nf.lo : f;
  const NodeId f1 = nf.var == top ? nf.hi : f;
  const NodeId g0 = ng.var == top ? ng.lo : g;
  const NodeId g1 = ng.var == top ? ng.hi : g;

  const NodeId lo = xor_rec(f0, g0);
  const NodeId hi = xor_rec(f1, g1);
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::Xor, f, g, 0, result);
  return result;
}

NodeId BddManager::ite_rec(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrueId) return g;
  if (f == kFalseId) return h;
  if (g == h) return g;
  if (g == kTrueId && h == kFalseId) return f;
  if (g == kFalseId && h == kTrueId) return not_rec(f);
  if (f == g) return or_rec(f, h);    // ite(f, f, h) == f | h
  if (f == h) return and_rec(f, g);   // ite(f, g, f) == f & g

  NodeId cached;
  if (cache_lookup(Op::Ite, f, g, h, cached)) return cached;

  const VarIndex top_level =
      std::min(level_of(f), std::min(level_of(g), level_of(h)));
  const VarIndex top = level2var_[top_level];

  auto cof = [&](NodeId x, bool hi_branch) {
    const Node& nx = nodes_[x];
    if (x <= kTrueId || nx.var != top) return x;
    return hi_branch ? nx.hi : nx.lo;
  };

  const NodeId lo = ite_rec(cof(f, false), cof(g, false), cof(h, false));
  const NodeId hi = ite_rec(cof(f, true), cof(g, true), cof(h, true));
  const NodeId result = make_node(top, lo, hi);
  cache_insert(Op::Ite, f, g, h, result);
  return result;
}

NodeId BddManager::restrict_rec(NodeId f, VarIndex v, bool value) {
  if (f <= kTrueId) return f;
  // Copied (not referenced): the recursion below can reallocate the
  // node table.
  const Node n = nodes_[f];
  if (var2level_[n.var] > var2level_[v]) return f;  // f is below v
  if (n.var == v) return value ? n.hi : n.lo;

  const Op op = value ? Op::Restrict1 : Op::Restrict0;
  NodeId cached;
  if (cache_lookup(op, f, v, 0, cached)) return cached;

  const NodeId lo = restrict_rec(n.lo, v, value);
  const NodeId hi = restrict_rec(n.hi, v, value);
  const NodeId result = make_node(n.var, lo, hi);
  cache_insert(op, f, v, 0, result);
  return result;
}

}  // namespace motsim::bdd

namespace motsim::bdd {

Bdd BddManager::constrain(const Bdd& f, const Bdd& c) {
  assert(f.manager() == this && c.manager() == this);
  if (c.is_zero()) {
    throw std::invalid_argument("constrain: care set must be non-empty");
  }
  maybe_auto_gc();
  return handle(constrain_rec(f.id(), c.id()));
}

NodeId BddManager::constrain_rec(NodeId f, NodeId c) {
  // Coudert-Madre generalized cofactor. Precondition: c != 0.
  if (c == kTrueId || f <= kTrueId) return f;
  if (f == c) return kTrueId;

  NodeId cached;
  if (cache_lookup(Op::Constrain, f, c, 0, cached)) return cached;

  const Node& nf = nodes_[f];
  const Node& nc = nodes_[c];
  const VarIndex top =
      level2var_[std::min(var2level_[nf.var], var2level_[nc.var])];
  const NodeId f0 = nf.var == top ? nf.lo : f;
  const NodeId f1 = nf.var == top ? nf.hi : f;
  const NodeId c0 = nc.var == top ? nc.lo : c;
  const NodeId c1 = nc.var == top ? nc.hi : c;

  NodeId result;
  if (c0 == kFalseId) {
    // The care set forces top = 1: project onto that branch.
    result = constrain_rec(f1, c1);
  } else if (c1 == kFalseId) {
    result = constrain_rec(f0, c0);
  } else {
    const NodeId lo = constrain_rec(f0, c0);
    const NodeId hi = constrain_rec(f1, c1);
    result = make_node(top, lo, hi);
  }
  cache_insert(Op::Constrain, f, c, 0, result);
  return result;
}

}  // namespace motsim::bdd
