#include "sched/bai.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "sched/arm_stats.hpp"
#include "sched/candidates.hpp"
#include "sched/exhaustive.hpp"
#include "sched/risk.hpp"
#include "support/error.hpp"

namespace wfe::sched {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Search-side state of one candidate placement.
struct Arm {
  ArmStats stats;
  std::uint64_t next_index = 0;  ///< next sample index (seed derivation)
  bool alive = true;             ///< still a contender
  double min_reward = std::numeric_limits<double>::infinity();
  double max_reward = -std::numeric_limits<double>::infinity();

  /// Within-arm sample spread: an estimate of the reward-noise scale
  /// (cross-arm spread is signal, not noise — see arm_stats.hpp).
  double spread() const { return stats.n >= 2 ? max_reward - min_reward : 0.0; }
};

}  // namespace

Schedule BaiSearch::plan(const EnsembleShape& shape,
                         const plat::PlatformSpec& platform,
                         const ResourceBudget& budget,
                         const PlanOptions& options) const {
  // Arms: the same candidate set exhaustive scores, in the same
  // lexicographic canonical order — so "lowest index" is the pick_winner
  // tie-break and the two schedulers are comparable arm for arm.
  PlanRun run(shape, platform, budget, options, PlanRun::Space::kExhaustive);
  const std::vector<Assignment>& candidates = run.candidates();
  if (options.jitter_cv == 0.0) {
    // Deterministic degenerate case: every arm's objective is a constant,
    // so the optimal sampling rule is one probe per arm and the search IS
    // the exhaustive reduction — same memo keys, so the two schedulers
    // return bit-identical placements and share cache entries.
    return run.schedule(name(), exhaustive_winner(run, candidates));
  }

  // Stochastic LUCB loop. The budget defaults to what the fixed-budget
  // schedulers would spend on this candidate set.
  std::vector<Arm> arms(candidates.size());
  std::uint64_t sample_budget =
      options.max_samples == 0
          ? options.probe_samples * candidates.size()
          : options.max_samples;
  sample_budget = std::max<std::uint64_t>(sample_budget, arms.size());

  std::uint64_t issued = 0;
  double reward_min = std::numeric_limits<double>::infinity();
  double reward_max = -std::numeric_limits<double>::infinity();
  // Noise-scale estimate for the range term: the widest within-arm sample
  // spread seen so far, over every arm ever resampled (dead ones too). A
  // spread never shrinks, so a running maximum equals a scan of all arms.
  double spread_max = 0.0;
  bool any_resampled = false;
  // Live arms in index order, compacted whenever one dies.
  std::vector<std::size_t> survivors(arms.size());
  std::iota(survivors.begin(), survivors.end(), std::size_t{0});

  // Issue one sample to each listed arm (batched: replays fan out to the
  // worker pool, but all statistics updates happen right here on the
  // calling thread, in arm-list order — thread count cannot perturb the
  // search trajectory).
  const auto sample_arms = [&](const std::vector<std::size_t>& which) {
    std::vector<BatchEvaluator::ArmSample> requests;
    requests.reserve(which.size());
    for (const std::size_t a : which) {
      requests.push_back({a, arms[a].next_index++});
    }
    const std::vector<std::optional<double>> rewards =
        run.sample(candidates, requests);
    issued += requests.size();
    bool any_died = false;
    for (std::size_t i = 0; i < which.size(); ++i) {
      Arm& arm = arms[which[i]];
      if (!rewards[i]) {
        arm.alive = false;  // placement property: no draw can differ
        any_died = true;
        continue;
      }
      const double reward = *rewards[i];
      arm.stats.add(reward);
      arm.min_reward = std::min(arm.min_reward, reward);
      arm.max_reward = std::max(arm.max_reward, reward);
      reward_min = std::min(reward_min, reward);
      reward_max = std::max(reward_max, reward);
      if (arm.stats.n >= 2) {
        any_resampled = true;
        spread_max = std::max(spread_max, arm.spread());
      }
    }
    if (any_died) {
      std::erase_if(survivors, [&](std::size_t a) { return !arms[a].alive; });
    }
  };

  // Round 0: one sample per arm, so every bound is defined (on a copy of
  // the list, which sample_arms compacts).
  sample_arms(std::vector<std::size_t>(survivors));

  std::size_t leader = kNone;
  for (;;) {
    // Leader: highest empirical mean among survivors, ties toward the
    // lowest index = lexicographically smallest canonical placement
    // (pick_winner's order).
    leader = kNone;
    for (const std::size_t a : survivors) {
      if (leader == kNone ||
          arms[a].stats.mean > arms[leader].stats.mean) {
        leader = a;
      }
    }
    if (leader == kNone) {
      throw SpecError(
          "bai-search: no feasible placement within the budget");
    }

    // Before any arm has two samples, fall back to the global reward
    // spread (wide on purpose — the first post-init round must not
    // eliminate anything on one draw).
    const double range =
        any_resampled ? spread_max
                      : (reward_max > reward_min ? reward_max - reward_min
                                                 : 0.0);
    const double log_term = exploration_log(issued, arms.size());
    const double leader_lb =
        lower_bound(arms[leader].stats, range, log_term);

    // Eliminate arms the leader provably beats; among the rest find the
    // strongest challenger (highest upper bound, ties toward the lowest
    // index). Elimination needs a second sample on both sides — a
    // one-draw mean says nothing about the noise it carries.
    const bool leader_seasoned = arms[leader].stats.n >= 2;
    std::size_t challenger = kNone;
    double challenger_ub = -std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::size_t a : survivors) {
      if (a != leader) {
        const double ub = upper_bound(arms[a].stats, range, log_term);
        if (leader_seasoned && arms[a].stats.n >= 2 && ub < leader_lb) {
          arms[a].alive = false;
          continue;
        }
        if (challenger == kNone || ub > challenger_ub) {
          challenger = a;
          challenger_ub = ub;
        }
      }
      survivors[kept++] = a;
    }
    survivors.resize(kept);
    if (challenger == kNone) break;      // leader dominates all survivors
    if (issued >= sample_budget) break;  // budget exhausted

    // LUCB step: always sample the challenger (its bound is the one
    // blocking the stop); sample the leader too only while its own
    // bound is at least as loose — once the leader is well pinned,
    // re-sampling it buys nothing and the budget goes to eliminations.
    std::vector<std::size_t> next{challenger};
    const double leader_radius =
        bound_radius(arms[leader].stats, range, log_term);
    const double challenger_radius =
        bound_radius(arms[challenger].stats, range, log_term);
    if (sample_budget - issued >= 2 &&
        leader_radius >= challenger_radius) {
      next.push_back(leader);
    }
    sample_arms(next);
  }

  return run.schedule(name(), candidates[leader], issued);
}

}  // namespace wfe::sched
