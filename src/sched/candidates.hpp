// Candidate generation and reduction shared by the search schedulers.
//
// Every replay-guided scheduler has the same two halves: generate candidate
// assignments (one node per component slot) and batch-score them. This
// header holds the generation side — canonical relabeling, exhaustive
// enumeration, local-move neighborhoods — plus the canonical winner
// reduction the batch side feeds into. Keeping the reduction here, with one
// total order (objective desc, then lexicographic canonical placement asc),
// is what makes parallel search results bit-identical to sequential ones.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sched/scheduler.hpp"

namespace wfe::sched {

/// One node choice per component in the fixed slot order
/// [m0.sim, m0.ana0, ..., m1.sim, ...] (see place()).
using Assignment = std::vector<int>;

/// Components of `shape` = slots of an assignment.
std::size_t slot_count(const EnsembleShape& shape);

/// Relabel nodes in first-appearance order (placements differing only by
/// node naming are equivalent on a homogeneous pool). `node_pool` bounds
/// the node values; the relabel table is a flat array of that size, not a
/// map — this runs once per local move (neighbor_assignments).
Assignment canonical(const Assignment& assignment, int node_pool);

/// Every canonically distinct assignment of `slots` components to nodes
/// 0..node_pool-1, in lexicographic order of the canonical form. This is
/// the exhaustive search space (exponential: capped by callers). The
/// canonical forms are generated directly, one per step, so the cost is
/// proportional to their count — sum over k <= node_pool of the Stirling
/// numbers S(slots, k) — not to node_pool^slots.
std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              int node_pool);

/// All canonical single-component moves from `from`: for each slot, every
/// other node in the pool. Duplicates under relabeling are kept (the
/// evaluation memo-cache collapses them for free); the assignment equal to
/// canonical(from) itself is dropped.
std::vector<Assignment> neighbor_assignments(const Assignment& from,
                                             int node_pool);

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
