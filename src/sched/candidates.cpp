#include "sched/candidates.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace wfe::sched {

std::size_t slot_count(const EnsembleShape& shape) {
  std::size_t slots = 0;
  for (const MemberShape& m : shape.members) slots += 1 + m.analyses.size();
  return slots;
}

Assignment canonical(const Assignment& assignment, int node_pool) {
  WFE_REQUIRE(node_pool >= 1, "need at least one node in the pool");
  // Flat relabel table indexed by node id; -1 = not seen yet.
  std::vector<int> relabel(static_cast<std::size_t>(node_pool), -1);
  int next = 0;
  Assignment out;
  out.reserve(assignment.size());
  for (int node : assignment) {
    WFE_REQUIRE(node >= 0 && node < node_pool, "node outside the pool");
    int& label = relabel[static_cast<std::size_t>(node)];
    if (label < 0) label = next++;
    out.push_back(label);
  }
  return out;
}

std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              int node_pool) {
  WFE_REQUIRE(slots >= 1, "need at least one slot");
  WFE_REQUIRE(node_pool >= 1, "need at least one node in the pool");
  // The canonical forms are exactly the restricted growth strings with
  // labels below node_pool: a[0] = 0 and a[i] <= 1 + max(a[0..i-1]). Bumping
  // the rightmost position that may grow and zeroing the tail visits them
  // in lexicographic order (Knuth, TAOCP 4A, 7.2.1.5), one string per step.
  const int top = node_pool - 1;
  Assignment a(slots, 0);
  std::vector<int> prefix_max(slots, 0);  // prefix_max[i] = max(a[0..i])
  std::vector<Assignment> out;
  for (;;) {
    out.push_back(a);
    std::size_t j = slots - 1;
    while (j > 0 && (a[j] > prefix_max[j - 1] || a[j] == top)) --j;
    if (j == 0) break;
    ++a[j];
    prefix_max[j] = std::max(prefix_max[j - 1], a[j]);
    for (std::size_t k = j + 1; k < slots; ++k) {
      a[k] = 0;
      prefix_max[k] = prefix_max[j];
    }
  }
  return out;
}

std::vector<Assignment> neighbor_assignments(const Assignment& from,
                                             int node_pool) {
  const Assignment self = canonical(from, node_pool);
  std::vector<Assignment> out;
  out.reserve(from.size() * static_cast<std::size_t>(node_pool - 1));
  Assignment probe = from;
  for (std::size_t slot = 0; slot < from.size(); ++slot) {
    const int original = probe[slot];
    for (int node = 0; node < node_pool; ++node) {
      if (node == original) continue;
      probe[slot] = node;
      Assignment canon = canonical(probe, node_pool);
      if (canon != self) out.push_back(std::move(canon));
    }
    probe[slot] = original;
  }
  return out;
}

std::optional<std::size_t> pick_winner(
    const std::vector<ScoredCandidate>& scored,
    const std::vector<Assignment>& candidates) {
  WFE_REQUIRE(scored.size() == candidates.size(),
              "one score per candidate required");
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (!scored[i].feasible) continue;
    if (!best || scored[i].objective > scored[*best].objective ||
        (scored[i].objective == scored[*best].objective &&
         candidates[i] < candidates[*best])) {
      best = i;
    }
  }
  return best;
}

}  // namespace wfe::sched
