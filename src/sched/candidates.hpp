// Candidate generation and reduction shared by the search schedulers.
//
// Every replay-guided scheduler has the same two halves: generate candidate
// assignments (one node per component slot) and batch-score them. This
// header holds the generation side — the node-symmetry model, canonical
// relabeling, exhaustive enumeration, local-move neighborhoods — plus the
// canonical winner reduction the batch side feeds into. Keeping the
// reduction here, with one total order (objective desc, then lexicographic
// canonical placement asc), is what makes parallel search results
// bit-identical to sequential ones.
//
// Node symmetry is decided in one place, node_classes(): which node ids a
// placement may swap without changing what is priced. Enumeration, the
// canonical form, the evaluation keys (eval_key.hpp) and the planning run
// (risk.hpp) all read that one partition.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "platform/spec.hpp"
#include "resilience/fault_spec.hpp"
#include "sched/scheduler.hpp"

namespace wfe::sched {

/// One node choice per component in the fixed slot order
/// [m0.sim, m0.ana0, ..., m1.sim, ...] (see place()).
using Assignment = std::vector<int>;

/// Components of `shape` = slots of an assignment.
std::size_t slot_count(const EnsembleShape& shape);

/// The core count of each slot of `shape`, in slot order.
std::vector<int> slot_cores(const EnsembleShape& shape);

/// The per-node core demand of a shape's assignments, checked without
/// building their specs: oversubscribed(a) is
/// place(shape, a).oversubscribed_node(platform) >= 0, summed from the
/// shape's core counts. Most candidates of a plan fail this check, so the
/// batch evaluator rejects them before placing them.
class CoreDemand {
 public:
  CoreDemand(const EnsembleShape& shape, const plat::PlatformSpec& platform);

  bool oversubscribed(const Assignment& assignment) const;

 private:
  std::vector<int> cores_;  // slot -> core count
  int nodes_ = 0;           // platform nodes; others are left to validation
  double capacity_ = 0.0;   // cores per node
};

/// A partition of node ids 0..size()-1 into classes of interchangeable
/// nodes: swapping two nodes of one class changes neither the replayed
/// score nor the risk charge of any placement. Classes are numbered by
/// their lowest node, so class 0 holds node 0.
class NodeClasses {
 public:
  /// Nodes with equal tags share a class; `tag[n]` is node n's tag.
  explicit NodeClasses(const std::vector<int>& tag);

  /// Every node of 0..nodes-1 in one class.
  static NodeClasses one(int nodes);

  int size() const { return static_cast<int>(class_of_.size()); }
  int class_count() const { return static_cast<int>(begin_.size()) - 1; }
  int class_of(int node) const { return class_of_[idx(node)]; }
  int class_size(int c) const { return begin_[idx(c) + 1] - begin_[idx(c)]; }
  /// Position of `node` among its class's nodes, ascending.
  int rank(int node) const { return rank_[idx(node)]; }
  /// The node at position `rank` of class `c`.
  int node(int c, int rank) const {
    return order_[idx(begin_[idx(c)] + rank)];
  }

  friend bool operator==(const NodeClasses&, const NodeClasses&) = default;

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  std::vector<int> class_of_;  // node -> class
  std::vector<int> rank_;      // node -> position within its class
  std::vector<int> order_;     // nodes grouped by class, ascending within
  std::vector<int> begin_{0};  // class -> first index into order_
};

/// The node classes of a plan over nodes 0..pool-1 of `platform`, probed
/// under `probe` (FaultSpec::probe_view()). One function decides it:
///   * Replay classes: one class when nothing in the probe tells nodes
///     apart — no straggler windows (they open per node) and the platform
///     within one interconnect group (hop_count charges by
///     node / group_size). Otherwise every node is its own class. Groups
///     are not classes of their own: replicas go to ring neighbours
///     (primary + k) % node_count, so a swap inside a group can move a
///     replica across groups.
///   * Those restricted to the pool, then split by doomed status: the
///     risk charge counts the scripted-downtime nodes (`doomed`, sorted)
///     a placement occupies, not which ones, and probes never see them.
/// A negative `pool` means the whole platform (the evaluator's keys).
NodeClasses node_classes(const plat::PlatformSpec& platform,
                         const res::FaultSpec& probe, int pool = -1,
                         const std::vector<int>& doomed = {});

/// Orbit relabelling under a NodeClasses: each class's nodes, in
/// first-appearance order, map onto that class's nodes in ascending order.
/// The image of an assignment is the lexicographically smallest member of
/// its orbit. The table is reused across calls, so relabelling allocates
/// nothing; reset() between placements.
class Relabel {
 public:
  explicit Relabel(NodeClasses classes);

  /// The label of `node` in the current placement; -1 outside the classes.
  int operator()(int node);
  /// Forget the current placement's labels.
  void reset();

 private:
  NodeClasses classes_;
  std::vector<int> label_;  // node -> label, -1 = not seen yet
  std::vector<int> next_;   // class -> labels handed out so far
  std::vector<int> seen_;   // nodes labelled in the current placement
};

/// The orbit representative of `assignment` under `classes`: its nodes
/// relabelled by Relabel. Every node must lie in 0..classes.size()-1.
Assignment canonical(const Assignment& assignment, const NodeClasses& classes);

/// The most candidates one plan may enumerate. It is above the 4,189,550
/// canonical forms 12 components have on 8 interchangeable nodes, the
/// largest search the earlier 12-component limit allowed.
inline constexpr std::size_t kMaxCandidates = std::size_t{1} << 22;

/// How many orbit representatives enumerate_assignments() emits: the sum
/// over k of S(slots, k) (slot partitions into k node blocks) times the
/// ways to give the k blocks, in first-appearance order, classes with at
/// most as many blocks per class as it has nodes. Exact below 2^53.
double candidate_count(std::size_t slots, const NodeClasses& classes);

/// One representative per orbit of assignments of `slots` components to
/// the nodes of `classes`, in lexicographic order: a slot takes a node an
/// earlier slot used, or the lowest unused node of some class. With one
/// class these are the restricted growth strings (Knuth, TAOCP 4A,
/// 7.2.1.5); with singletons, all size()^slots assignments. The cost is
/// proportional to the output. Throws wfe::SpecError naming the count when
/// it exceeds kMaxCandidates.
std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              const NodeClasses& classes);
/// The same over nodes 0..node_pool-1 in one class.
std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              int node_pool);

/// All canonical single-component moves from `from`: for each slot, every
/// other node of `classes`. Duplicates under relabeling are kept (the
/// evaluation memo-cache collapses them for free); the assignment equal to
/// canonical(from) itself is dropped.
std::vector<Assignment> neighbor_assignments(const Assignment& from,
                                             const NodeClasses& classes);

/// The canonical reduction: among candidates where `feasible(i)` and with
/// score `objective(i)`, pick the highest objective, breaking ties toward
/// the lexicographically smallest canonical assignment. Returns nullopt if
/// none is feasible. Sequential and order-independent of how the scores
/// were produced — the keystone of thread-count-invariant search.
struct ScoredCandidate {
  bool feasible = false;
  double objective = 0.0;
};
std::optional<std::size_t> pick_winner(
    const std::vector<ScoredCandidate>& scored,
    const std::vector<Assignment>& candidates);

}  // namespace wfe::sched
