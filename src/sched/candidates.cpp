#include "sched/candidates.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/error.hpp"
#include "support/str.hpp"

namespace wfe::sched {

std::size_t slot_count(const EnsembleShape& shape) {
  std::size_t slots = 0;
  for (const MemberShape& m : shape.members) slots += 1 + m.analyses.size();
  return slots;
}

std::vector<int> slot_cores(const EnsembleShape& shape) {
  std::vector<int> cores;
  cores.reserve(slot_count(shape));
  for (const MemberShape& m : shape.members) {
    cores.push_back(m.sim.cores);
    for (const rt::AnalysisSpec& a : m.analyses) cores.push_back(a.cores);
  }
  return cores;
}

CoreDemand::CoreDemand(const EnsembleShape& shape,
                       const plat::PlatformSpec& platform)
    : cores_(slot_cores(shape)),
      nodes_(platform.node_count),
      capacity_(static_cast<double>(platform.node.cores)) {}

bool CoreDemand::oversubscribed(const Assignment& assignment) const {
  WFE_REQUIRE(assignment.size() == cores_.size(),
              "assignment must hold one node per component");
  const auto begin = assignment.begin();
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const int node = assignment[i];
    if (node < 0 || node >= nodes_) continue;
    const auto at = begin + static_cast<std::ptrdiff_t>(i);
    if (std::find(begin, at, node) != at) continue;  // summed at first use
    // The node's demand in slot order, as EnsembleSpec sums it.
    double demand = 0.0;
    for (std::size_t j = i; j < assignment.size(); ++j) {
      if (assignment[j] == node) demand += static_cast<double>(cores_[j]);
    }
    if (demand > capacity_ + 1e-9) return true;
  }
  return false;
}

NodeClasses::NodeClasses(const std::vector<int>& tag)
    : class_of_(tag.size()), rank_(tag.size()) {
  // Classes are numbered in order of their lowest node.
  std::map<int, int> class_of_tag;
  std::vector<int> sizes;
  for (std::size_t n = 0; n < tag.size(); ++n) {
    const auto [it, fresh] =
        class_of_tag.try_emplace(tag[n], static_cast<int>(sizes.size()));
    if (fresh) sizes.push_back(0);
    class_of_[n] = it->second;
    rank_[n] = sizes[idx(it->second)]++;
  }
  for (const int size : sizes) begin_.push_back(begin_.back() + size);
  order_.resize(tag.size());
  for (std::size_t n = 0; n < tag.size(); ++n) {
    order_[idx(begin_[idx(class_of_[n])] + rank_[n])] = static_cast<int>(n);
  }
}

NodeClasses NodeClasses::one(int nodes) {
  return NodeClasses(std::vector<int>(idx(std::max(nodes, 0)), 0));
}

NodeClasses node_classes(const plat::PlatformSpec& platform,
                         const res::FaultSpec& probe, int pool,
                         const std::vector<int>& doomed) {
  const bool symmetric =
      probe.straggler_mtbf_s <= 0.0 &&
      platform.node_count <= platform.interconnect.group_size;
  const int nodes = pool < 0 ? platform.node_count : pool;
  std::vector<int> tag(static_cast<std::size_t>(std::max(nodes, 0)));
  for (int n = 0; n < nodes; ++n) {
    const bool is_doomed =
        std::binary_search(doomed.begin(), doomed.end(), n);
    tag[static_cast<std::size_t>(n)] = 2 * (symmetric ? 0 : n) + is_doomed;
  }
  return NodeClasses(tag);
}

Relabel::Relabel(NodeClasses classes)
    : classes_(std::move(classes)),
      label_(static_cast<std::size_t>(classes_.size()), -1),
      next_(static_cast<std::size_t>(classes_.class_count()), 0) {}

int Relabel::operator()(int node) {
  if (node < 0 || node >= classes_.size()) return -1;
  int& label = label_[static_cast<std::size_t>(node)];
  if (label < 0) {
    const int c = classes_.class_of(node);
    label = classes_.node(c, next_[static_cast<std::size_t>(c)]++);
    seen_.push_back(node);
  }
  return label;
}

void Relabel::reset() {
  for (const int node : seen_) {
    label_[static_cast<std::size_t>(node)] = -1;
    next_[static_cast<std::size_t>(classes_.class_of(node))] = 0;
  }
  seen_.clear();
}

namespace {

Assignment relabelled(const Assignment& assignment, Relabel& relabel) {
  Assignment out;
  out.reserve(assignment.size());
  for (const int node : assignment) {
    const int label = relabel(node);
    WFE_REQUIRE(label >= 0, "node outside the pool");
    out.push_back(label);
  }
  relabel.reset();
  return out;
}

}  // namespace

Assignment canonical(const Assignment& assignment,
                     const NodeClasses& classes) {
  WFE_REQUIRE(classes.size() >= 1, "need at least one node in the pool");
  Relabel relabel(classes);
  return relabelled(assignment, relabel);
}

double candidate_count(std::size_t slots, const NodeClasses& classes) {
  // In doubles: the count only has to be compared with kMaxCandidates and
  // printed. ways[k]: class sequences of k blocks, class c used at most
  // |c| times; adding a class chooses which j of the k blocks it takes.
  std::vector<double> ways(slots + 1, 0.0);
  ways[0] = 1.0;
  for (int c = 0; c < classes.class_count(); ++c) {
    const std::size_t size = static_cast<std::size_t>(classes.class_size(c));
    std::vector<double> next(slots + 1, 0.0);
    for (std::size_t k = 0; k <= slots; ++k) {
      double binom = 1.0;  // C(k, j)
      for (std::size_t j = 0; j <= std::min(size, k); ++j) {
        next[k] += ways[k - j] * binom;
        binom = binom * static_cast<double>(k - j) / static_cast<double>(j + 1);
      }
    }
    ways = std::move(next);
  }
  std::vector<double> stirling(slots + 1, 0.0);  // S(i, k), row by row
  stirling[0] = 1.0;
  for (std::size_t i = 1; i <= slots; ++i) {
    for (std::size_t k = i; k >= 1; --k) {
      stirling[k] = static_cast<double>(k) * stirling[k] + stirling[k - 1];
    }
    stirling[0] = 0.0;
  }
  double total = 0.0;
  for (std::size_t k = 1; k <= slots; ++k) total += stirling[k] * ways[k];
  return total;
}

std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              const NodeClasses& classes) {
  WFE_REQUIRE(slots >= 1, "need at least one slot");
  WFE_REQUIRE(classes.size() >= 1, "need at least one node in the pool");
  const double count = candidate_count(slots, classes);
  if (count > static_cast<double>(kMaxCandidates)) {
    throw SpecError(strprintf(
        "%.0f canonical placements of %zu components on %d nodes exceed the "
        "search cap of %zu candidates",
        count, slots, classes.size(), kMaxCandidates));
  }
  // A slot may take a node an earlier slot used, or the lowest unused node
  // of some class: the nodes n with rank(n) <= used[class_of(n)], where
  // used[c] counts the class's nodes the prefix holds (always its lowest).
  // Advancing the rightmost slot that has a higher admissible node and
  // resetting the tail to node 0 visits them in lexicographic order.
  const int nodes = classes.size();
  std::vector<int> used(static_cast<std::size_t>(classes.class_count()), 0);
  std::vector<char> opened(slots, 0);  // slot i was its node's first use
  const auto take = [&](std::size_t slot, int node) {
    int& u = used[static_cast<std::size_t>(classes.class_of(node))];
    opened[slot] = classes.rank(node) == u;
    if (opened[slot]) ++u;
  };
  Assignment a(slots, 0);
  take(0, 0);
  std::vector<Assignment> out;
  out.reserve(static_cast<std::size_t>(count));
  for (;;) {
    out.push_back(a);
    std::size_t j = slots;
    int next = nodes;
    while (j > 0 && next == nodes) {
      --j;
      if (opened[j]) --used[static_cast<std::size_t>(classes.class_of(a[j]))];
      next = a[j] + 1;
      while (next < nodes &&
             classes.rank(next) >
                 used[static_cast<std::size_t>(classes.class_of(next))]) {
        ++next;
      }
    }
    if (next == nodes) break;
    a[j] = next;
    take(j, next);
    for (std::size_t k = j + 1; k < slots; ++k) {
      a[k] = 0;
      take(k, 0);
    }
  }
  return out;
}

std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              int node_pool) {
  return enumerate_assignments(slots, NodeClasses::one(node_pool));
}

std::vector<Assignment> neighbor_assignments(const Assignment& from,
                                             const NodeClasses& classes) {
  Relabel relabel(classes);
  const Assignment self = relabelled(from, relabel);
  const int nodes = classes.size();
  std::vector<Assignment> out;
  out.reserve(from.size() * static_cast<std::size_t>(nodes - 1));
  Assignment probe = from;
  for (std::size_t slot = 0; slot < from.size(); ++slot) {
    const int original = probe[slot];
    for (int node = 0; node < nodes; ++node) {
      if (node == original) continue;
      probe[slot] = node;
      Assignment canon = relabelled(probe, relabel);
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
