#ifndef MOTSIM_BDD_BDD_H
#define MOTSIM_BDD_BDD_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace motsim::bdd {

/// Index of a node in the manager's node table. The two terminals
/// occupy fixed slots: 0 is the constant-false node, 1 constant-true.
using NodeId = std::uint32_t;

inline constexpr NodeId kFalseId = 0;
inline constexpr NodeId kTrueId = 1;

/// Variable index (stable identity). The *initial* order equals
/// creation order — variable 0 closest to the root — and the
/// simulators rely on that default (they interleave the fault-free and
/// faulty initial-state variables x_1,y_1,x_2,y_2,... so the MOT
/// rename x_i -> y_i is order-preserving). The manager additionally
/// supports dynamic reordering (set_variable_order / reorder_sift),
/// which permutes the var <-> level maps while preserving every
/// handle's function; do not reorder in the middle of a fault
/// simulation that uses rename's order-preserving fast path.
using VarIndex = std::uint32_t;

/// Sentinel variable index of the terminal nodes; orders below every
/// real variable.
inline constexpr VarIndex kTerminalVar = 0xFFFFFFFFu;

class BddManager;

/// Boolean fold of BddManager::apply_gate.
enum class GateOp : std::uint8_t { And, Or, Xor };

/// Thrown by node-creating operations when the manager's hard node
/// limit is exceeded. The hybrid fault simulator catches this to
/// trigger its three-valued fallback window (the paper's 30,000-node
/// space limit).
class BddOverflow : public std::runtime_error {
 public:
  explicit BddOverflow(std::size_t limit)
      : std::runtime_error("BDD node limit exceeded (" +
                           std::to_string(limit) + " nodes)") {}
};

/// Tuning knobs for a BddManager.
struct BddConfig {
  /// Initial node table capacity (grows on demand).
  std::size_t initial_capacity = 1u << 12;
  /// log2 of the number of computed-cache entries.
  unsigned cache_size_log2 = 16;
  /// Hard cap on live nodes; node creation beyond it throws
  /// BddOverflow. SIZE_MAX disables the cap.
  std::size_t hard_node_limit = static_cast<std::size_t>(-1);
  /// Automatic garbage collection runs (at public-operation entry)
  /// once the live-node count exceeds this floor and has doubled since
  /// the previous collection.
  std::size_t auto_gc_floor = 1u << 16;
};

/// Operation counters, exposed for the micro-benchmarks, the tests and
/// the telemetry layer (obs/telemetry.h maps them to bdd.* metrics).
struct BddStats {
  std::uint64_t nodes_created = 0;
  std::uint64_t unique_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t gc_runs = 0;
  /// Nodes freed across all gc() sweeps.
  std::uint64_t gc_reclaimed_nodes = 0;
  /// Wall seconds spent inside gc(), including the collections that
  /// reorder_sift / set_variable_order run.
  double gc_seconds = 0;
  std::size_t peak_live_nodes = 0;
  /// Wall seconds spent inside reorder_sift / set_variable_order.
  double reorder_seconds = 0;
};

namespace detail {

/// GC root table shared by a manager and its handles: one handle count
/// per node slot plus the total. The manager allocates it; when the
/// manager dies with handles still alive it only clears `owner`, and
/// the last of those handles frees the block.
struct RootTable {
  BddManager* owner = nullptr;
  std::vector<std::uint32_t> counts;  ///< handles per node slot
  std::size_t total = 0;              ///< all handles, terminals included
};

}  // namespace detail

/// RAII handle to a BDD function.
///
/// A Bdd is a (root table, node id) pair. It counts itself in its
/// manager's root table, and garbage collection keeps every node
/// reachable from a slot with a non-zero count. Copy is one increment,
/// destruction one decrement, move steals the pair; all are inline.
/// Only handles are counted, never internal edges, so collection stays
/// mark-and-sweep. A handle that outlives its manager reads is_null()
/// and may still be copied, assigned and destroyed.
///
/// Boolean structure is exposed through operators:
///   `f & g`, `f | g`, `f ^ g`, `!f`, `f.xnor(g)`, `f.implies(g)`.
/// Equality (`==`) is *functional* equality — canonical OBDDs make it
/// a constant-time id comparison.
class Bdd {
 public:
  /// Null handle, not attached to any manager.
  Bdd() noexcept = default;
  Bdd(const Bdd& other) noexcept : roots_(other.roots_), id_(other.id_) {
    acquire();
  }
  Bdd(Bdd&& other) noexcept
      : roots_(std::exchange(other.roots_, nullptr)),
        id_(std::exchange(other.id_, kFalseId)) {}
  Bdd& operator=(const Bdd& other) noexcept {
    other.acquire();  // before release(): self-assignment stays counted
    release();
    roots_ = other.roots_;
    id_ = other.id_;
    return *this;
  }
  Bdd& operator=(Bdd&& other) noexcept {
    if (this != &other) {
      release();
      roots_ = std::exchange(other.roots_, nullptr);
      id_ = std::exchange(other.id_, kFalseId);
    }
    return *this;
  }
  ~Bdd() { release(); }

  /// True for a default-constructed (detached) handle, and for one
  /// whose manager has been destroyed.
  [[nodiscard]] bool is_null() const noexcept {
    return roots_ == nullptr || roots_->owner == nullptr;
  }
  /// True if this is the constant-false function.
  [[nodiscard]] bool is_zero() const noexcept {
    return id_ == kFalseId && !is_null();
  }
  /// True if this is the constant-true function.
  [[nodiscard]] bool is_one() const noexcept {
    return id_ == kTrueId && !is_null();
  }
  /// True if this is either constant.
  [[nodiscard]] bool is_const() const noexcept {
    return id_ <= kTrueId && !is_null();
  }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] BddManager* manager() const noexcept {
    return roots_ != nullptr ? roots_->owner : nullptr;
  }

  /// Index of the topmost (root) variable; kTerminalVar for constants.
  [[nodiscard]] VarIndex top_var() const;

  /// Cofactors with respect to the root variable. Requires !is_const().
  [[nodiscard]] Bdd high() const;  ///< root variable = 1 branch
  [[nodiscard]] Bdd low() const;   ///< root variable = 0 branch

  Bdd operator&(const Bdd& rhs) const;
  Bdd operator|(const Bdd& rhs) const;
  Bdd operator^(const Bdd& rhs) const;
  Bdd operator!() const;
  [[nodiscard]] Bdd xnor(const Bdd& rhs) const;
  [[nodiscard]] Bdd implies(const Bdd& rhs) const;

  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }

  /// Functional equality (same manager and same canonical node).
  friend bool operator==(const Bdd& a, const Bdd& b) noexcept {
    return a.roots_ == b.roots_ && a.id_ == b.id_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) noexcept {
    return !(a == b);
  }

  /// Evaluates under a complete assignment (index = variable).
  [[nodiscard]] bool eval(const std::vector<bool>& assignment) const;

  /// Number of distinct internal nodes of this function (terminals not
  /// counted).
  [[nodiscard]] std::size_t node_count() const;

 private:
  friend class BddManager;
  Bdd(detail::RootTable* roots, NodeId id) noexcept : roots_(roots), id_(id) {
    acquire();
  }

  /// The owning manager; requires !is_null().
  [[nodiscard]] BddManager& mgr() const noexcept { return *roots_->owner; }

  void acquire() const noexcept {
    if (roots_ != nullptr) {
      ++roots_->counts[id_];
      ++roots_->total;
    }
  }
  void release() noexcept {
    if (roots_ != nullptr) {
      --roots_->counts[id_];
      if (--roots_->total == 0 && roots_->owner == nullptr) delete roots_;
    }
  }

  detail::RootTable* roots_ = nullptr;
  NodeId id_ = kFalseId;
};

/// Manager owning the node table, the unique table and the computed
/// cache.
///
/// THREAD-OWNERSHIP CONTRACT (relied on by core/parallel_sym_sim):
/// a BddManager and every Bdd handle attached to it are single-
/// threaded *by design* — no operation takes a lock, and the root
/// table's handle counts are plain integers that GC reads concurrently
/// with nothing. The rules:
///
///   1. One manager is owned by exactly one thread at a time; all
///      operations on it and on its handles (including Bdd copy/move/
///      destruction, which update the root table) must run on that
///      thread. A handle that outlives its manager still updates the
///      shared table, so it stays on the manager's last thread too.
///   2. Handles never cross manager boundaries; to move a function to
///      another thread's manager, rebuild it there via transfer().
///   3. Distinct managers on distinct threads never synchronize and
///      are therefore freely concurrent — the fault-sharded parallel
///      driver runs one private manager per worker chunk and merges
///      only plain (non-BDD) results.
///
/// Ownership may migrate between threads only across a happens-before
/// edge with no operations in flight (e.g. a thread-pool task finishes
/// with the manager quiescent before another task picks it up).
class BddManager {
 public:
  explicit BddManager(const BddConfig& config = {});
  ~BddManager();

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // ---- constants and variables -------------------------------------

  [[nodiscard]] Bdd zero() { return handle(kFalseId); }
  [[nodiscard]] Bdd one() { return handle(kTrueId); }
  [[nodiscard]] Bdd constant(bool b) { return b ? one() : zero(); }

  /// Handle to node `id`, which must be live (the id() of a handle of
  /// this manager, or a terminal).
  [[nodiscard]] Bdd handle(NodeId id) { return Bdd(roots_, id); }

  /// Projection function of variable `index`; extends the variable
  /// universe as needed.
  [[nodiscard]] Bdd var(VarIndex index);
  /// Negated projection function of variable `index`.
  [[nodiscard]] Bdd nvar(VarIndex index);

  /// Number of variables created so far.
  [[nodiscard]] VarIndex var_count() const noexcept { return num_vars_; }

  /// Ensures variables [0, count) exist.
  void ensure_vars(VarIndex count);

  // ---- variable order -------------------------------------------------

  /// Level (distance from the root, 0 = first) of a variable.
  [[nodiscard]] VarIndex level_of_var(VarIndex v) const {
    return var2level_[v];
  }
  /// Variable sitting at `level`.
  [[nodiscard]] VarIndex var_at_level(VarIndex level) const {
    return level2var_[level];
  }

  /// Swaps the variables at `level` and `level+1` in place (Rudell's
  /// adjacent exchange). Every handle keeps its NodeId and function;
  /// the computed cache stays valid because node identities denote
  /// unchanged functions.
  void swap_adjacent_levels(VarIndex level);

  /// Imposes a full order: `order[i]` is the variable at level i (a
  /// permutation of [0, var_count())). Implemented as a sequence of
  /// adjacent swaps.
  void set_variable_order(const std::vector<VarIndex>& order);

  /// Rudell sifting: moves each variable (most populous first) to its
  /// locally best level. `max_growth` bounds intermediate blow-up as a
  /// factor of the starting size (e.g. 1.2 allows 20% growth during a
  /// single variable's sweep). Returns the live node count afterwards.
  std::size_t reorder_sift(double max_growth = 1.2);

  // ---- boolean operations ------------------------------------------

  [[nodiscard]] Bdd apply_not(const Bdd& f);
  [[nodiscard]] Bdd apply_and(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_or(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xor(const Bdd& f, const Bdd& g);
  [[nodiscard]] Bdd apply_xnor(const Bdd& f, const Bdd& g);
  /// If-then-else: f ? g : h.
  [[nodiscard]] Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);

  /// One gate evaluation: folds `op` over `operands` from the left,
  /// starting at the op's identity and stopping once the result is
  /// absorbing (0 for AND, 1 for OR), then complements the result when
  /// `negate` is set. Every operand must be the id() of a live handle
  /// of this manager, since automatic collection may run.
  ///
  /// The sequence of operations, and with it every BddStats counter,
  /// equals the handle-level fold `acc = one(); acc &= x_i ...; !acc`:
  /// the automatic-GC check runs before every pairwise step (terminal
  /// steps included) and before the negation, with the running result
  /// rooted while a collection runs. The negation's check is merged
  /// with the first step's when there is one operand, since nothing
  /// allocates between them. A gate whose operands are all constants
  /// folds plain booleans inline when no collection is due.
  [[nodiscard]] Bdd apply_gate(GateOp op, bool negate,
                               std::span<const NodeId> operands) {
    if (live_count_ < next_gc_at_) {
      // No collection is due, and a constant fold allocates nothing,
      // so none of the fold's checks could fire.
      bool acc = op == GateOp::And;
      bool constant = true;
      for (const NodeId x : operands) {
        if (x > kTrueId) {
          constant = false;
          break;
        }
        const bool b = x == kTrueId;
        acc = op == GateOp::And ? acc && b
              : op == GateOp::Or ? acc || b
                                 : acc != b;
      }
      if (constant) return handle((acc != negate) ? kTrueId : kFalseId);
    }
    return handle(gate_fold(op, negate, operands));
  }

  /// Cofactor: f with variable `v` fixed to `value`.
  [[nodiscard]] Bdd restrict_var(const Bdd& f, VarIndex v, bool value);

  /// Generalized cofactor (Coudert-Madre constrain): a function that
  /// agrees with f on every assignment satisfying c and is typically
  /// smaller than f. Requires c != 0 (throws std::invalid_argument).
  /// Key identity: constrain(f, c) & c == f & c.
  [[nodiscard]] Bdd constrain(const Bdd& f, const Bdd& c);

  /// Functional composition: f with variable `v` replaced by g.
  [[nodiscard]] Bdd compose(const Bdd& f, VarIndex v, const Bdd& g);

  /// Simultaneous variable renaming. `mapping[old] = new`; identity
  /// entries may be omitted by passing mapping.size() < var_count().
  /// The mapping must be order-preserving on the support of `f`
  /// (checked; throws std::invalid_argument otherwise) — the fast path
  /// the simulators rely on for the MOT x->y substitution.
  [[nodiscard]] Bdd rename(const Bdd& f, const std::vector<VarIndex>& mapping);

  /// Existential quantification over the given variables.
  [[nodiscard]] Bdd exists(const Bdd& f, const std::vector<VarIndex>& vars);
  /// Relational product: exists vars . (f & g), computed in one
  /// recursion without materializing the conjunction — the workhorse
  /// of symbolic image computation (core/symbolic_fsm.h).
  [[nodiscard]] Bdd and_exists(const Bdd& f, const Bdd& g,
                               const std::vector<VarIndex>& vars);
  /// Universal quantification over the given variables.
  [[nodiscard]] Bdd forall(const Bdd& f, const std::vector<VarIndex>& vars);

  // ---- analysis -----------------------------------------------------

  /// Variables the function actually depends on, ascending.
  [[nodiscard]] std::vector<VarIndex> support(const Bdd& f);

  /// Number of satisfying assignments over `nvars` variables
  /// (defaults to the whole universe).
  [[nodiscard]] double sat_count(const Bdd& f, VarIndex nvars);
  [[nodiscard]] double sat_count(const Bdd& f) {
    return sat_count(f, num_vars_);
  }

  /// One satisfying assignment (per-variable 0/1/-1 = don't-care), or
  /// nullopt for the zero function.
  [[nodiscard]] std::optional<std::vector<std::int8_t>> pick_one(
      const Bdd& f);

  /// DAG size of a single function (internal nodes only).
  [[nodiscard]] std::size_t node_count(const Bdd& f) const;
  /// Shared DAG size of a set of functions — the paper's Table IV
  /// measures this for the symbolic output sequence.
  [[nodiscard]] std::size_t node_count(std::span<const Bdd> fs) const;

  /// Live (reachable-or-not-yet-collected) internal nodes in the
  /// manager; the quantity the hybrid simulator compares against the
  /// space limit.
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return live_count_;
  }

  /// Current unique-table bucket count; live_node_count() divided by
  /// this is the table's load factor (telemetry reports both).
  [[nodiscard]] std::size_t unique_bucket_count() const noexcept {
    return buckets_.size();
  }

  /// Graphviz dump of one function, for debugging and docs.
  [[nodiscard]] std::string to_dot(const Bdd& f, const std::string& name);

  /// Rebuilds `f` (a function of THIS manager) inside `target` with an
  /// arbitrary variable mapping — including order-changing ones, which
  /// rename() rejects. Expansion happens through target.ite, so the
  /// result is canonical under the target's order. The managers may be
  /// the same object (then this is a general, slower rename).
  [[nodiscard]] static Bdd transfer(const Bdd& f, BddManager& target,
                                    const std::vector<VarIndex>& mapping);

  // ---- memory management ---------------------------------------------

  /// Mark-and-sweep collection from every node slot a handle holds.
  /// Safe to call at any quiescent point (never called implicitly
  /// during an operation's recursion).
  ///
  /// The cost tracks the work since the previous collection, not the
  /// node table's high-water mark: marking visits only nodes reachable
  /// from handles, the sweep visits only the previous collection's
  /// survivors plus the slots allocated since (dead ones are unlinked
  /// from their bucket chains; the unique table is never rebuilt), and
  /// the computed cache is invalidated by bumping a generation number
  /// rather than by rewriting its entries.
  void gc();

  /// Sets/clears the hard node cap (see BddConfig::hard_node_limit).
  void set_hard_node_limit(std::size_t limit) noexcept {
    hard_node_limit_ = limit;
  }
  [[nodiscard]] std::size_t hard_node_limit() const noexcept {
    return hard_node_limit_;
  }

  [[nodiscard]] const BddStats& stats() const noexcept { return stats_; }

  /// Number of live non-null handles (tests use this to verify RAII
  /// bookkeeping).
  [[nodiscard]] std::size_t handle_count() const noexcept {
    return roots_->total;
  }

  /// Variable index of a node (kTerminalVar for terminals).
  [[nodiscard]] VarIndex var_of(NodeId n) const noexcept {
    return nodes_[n].var;
  }
  [[nodiscard]] NodeId low_of(NodeId n) const noexcept {
    return nodes_[n].lo;
  }
  [[nodiscard]] NodeId high_of(NodeId n) const noexcept {
    return nodes_[n].hi;
  }

 private:
  friend class Bdd;

  struct Node {
    VarIndex var;
    NodeId lo;
    NodeId hi;
    NodeId next;  ///< unique-table bucket chain / free-list link
  };

  enum class Op : std::uint8_t {
    Not = 1,
    And,
    Or,
    Xor,
    Ite,
    Restrict0,
    Restrict1,
    Constrain,
    Compose,
    Exists,
    Forall,
  };

  /// One computed-cache entry. `tag` packs the cache generation
  /// (upper 24 bits) with the Op (low byte); gc() bumps the generation,
  /// which invalidates every entry at once. Tag 0 is never valid.
  struct CacheEntry {
    NodeId f = 0, g = 0, h = 0, result = 0;
    std::uint32_t tag = 0;
  };
  static_assert(sizeof(CacheEntry) == 20, "generation tag grew the cache");

  /// Level of a node's root variable; terminals sink below everything.
  [[nodiscard]] VarIndex level_of(NodeId n) const {
    const VarIndex v = nodes_[n].var;
    return v == kTerminalVar ? kTerminalVar : var2level_[v];
  }

  // Node construction. make_node, bucket_of and the computed-cache
  // functions are defined inline in bdd_internal.h.
  NodeId make_node(VarIndex var, NodeId lo, NodeId hi);
  NodeId allocate_slot(VarIndex var, NodeId lo, NodeId hi);
  void rehash(std::size_t new_bucket_count);
  void unlink_from_bucket(NodeId id);
  [[nodiscard]] std::size_t bucket_of(VarIndex var, NodeId lo,
                                      NodeId hi) const noexcept;

  // Computed cache.
  [[nodiscard]] bool cache_lookup(Op op, NodeId f, NodeId g, NodeId h,
                                  NodeId& out);
  void cache_insert(Op op, NodeId f, NodeId g, NodeId h, NodeId result);

  // Recursive operation kernels (no auto-GC inside).
  NodeId not_rec(NodeId f);
  NodeId and_rec(NodeId f, NodeId g);
  NodeId or_rec(NodeId f, NodeId g);
  NodeId xor_rec(NodeId f, NodeId g);
  NodeId ite_rec(NodeId f, NodeId g, NodeId h);
  NodeId restrict_rec(NodeId f, VarIndex v, bool value);
  NodeId constrain_rec(NodeId f, NodeId c);
  NodeId compose_rec(NodeId f, VarIndex v, NodeId g);
  NodeId quant_rec(NodeId f, const std::vector<VarIndex>& vars,
                   std::size_t idx, bool existential,
                   std::unordered_map<NodeId, NodeId>& memo);
  NodeId and_exists_rec(NodeId f, NodeId g,
                        const std::vector<VarIndex>& vars, std::size_t idx,
                        std::unordered_map<std::uint64_t, NodeId>& memo);

  /// apply_gate's fold over the non-constant case.
  NodeId gate_fold(GateOp op, bool negate, std::span<const NodeId> operands);

  void maybe_auto_gc() {
    if (live_count_ >= next_gc_at_) gc();
  }
  /// maybe_auto_gc with `acc` rooted while the collection runs.
  void maybe_auto_gc(NodeId acc);

  /// Fresh value for the epoch stamps below; stamps left by earlier
  /// passes never equal it.
  std::uint32_t next_epoch();
  /// Fills support_vars_ with the support of `root`, unsorted.
  void collect_support(NodeId root);

  // Node storage.
  std::vector<Node> nodes_;
  std::vector<NodeId> buckets_;     ///< unique table (power-of-two size)
  NodeId free_head_ = 0;            ///< head of free-slot list (0 = none)
  std::size_t live_count_ = 0;
  VarIndex num_vars_ = 0;
  std::vector<VarIndex> var2level_;
  std::vector<VarIndex> level2var_;

  // Collection bookkeeping: every used slot is in exactly one of
  // survivors_ (live after the last gc) and fresh_ (allocated since).
  std::vector<NodeId> survivors_;
  std::vector<NodeId> fresh_;
  /// gc's next survivor list; swap_adjacent_levels' slot snapshot.
  std::vector<NodeId> slot_buf_;
  std::vector<NodeId> stack_;  ///< persistent DFS stack

  // Epoch-stamped scratch arrays of gc, support and rename: an entry
  // is meaningful only while it equals the pass's epoch.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;      ///< per node slot
  std::vector<std::uint32_t> var_stamp_;  ///< per variable
  std::vector<NodeId> memo_;              ///< rename result per node slot
  std::vector<VarIndex> support_vars_;

  // Computed cache.
  std::vector<CacheEntry> cache_;
  std::size_t cache_mask_ = 0;
  std::uint32_t cache_generation_ = 1;

  /// GC roots: handle counts per node slot, shared with the handles.
  detail::RootTable* roots_ = nullptr;

  // Policy.
  std::size_t hard_node_limit_;
  std::size_t auto_gc_floor_;
  std::size_t next_gc_at_;

  BddStats stats_;
};

}  // namespace motsim::bdd

#endif  // MOTSIM_BDD_BDD_H
