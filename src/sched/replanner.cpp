#include "sched/replanner.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace wfe::sched {

RePlanner::RePlanner(EnsembleShape shape, plat::PlatformSpec platform,
                     PlanOptions options)
    : shape_(std::move(shape)),
      options_(std::move(options)),
      evaluator_(std::move(platform), probe_scenario(options_),
                 options_.threads),
      risk_(RiskModel::of(options_, shape_.n_steps)) {
  WFE_REQUIRE(!shape_.members.empty(), "re-planner needs a non-empty shape");
  WFE_REQUIRE(options_.probe_samples >= 1,
              "probe-samples must be at least 1");
  evaluator_.attach_shared_cache(options_.shared_cache);
  slot_offset_.reserve(shape_.members.size());
  std::size_t offset = 0;
  for (const MemberShape& m : shape_.members) {
    slot_offset_.push_back(offset);
    offset += 1 + m.analyses.size();
  }
  current_.assign(offset, 0);
}

void RePlanner::set_assignment(Assignment assignment) {
  WFE_REQUIRE(assignment.size() == slot_count(shape_),
              "assignment size must match the shape's slot count");
  support::RankGuard guard(mutex_);
  current_ = std::move(assignment);
}

Assignment RePlanner::assignment() const {
  support::RankGuard guard(mutex_);
  return current_;
}

rt::MigrationPlanner RePlanner::hook() {
  return [this](const rt::MigrationRequest& request) {
    return replan(request);
  };
}

int RePlanner::replan(const rt::MigrationRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  int target = -1;
  double latency = 0.0;
  {
    support::RankGuard guard(mutex_);
    target = replan_locked(request);
    latency = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    last_latency_s_ = latency;
  }
  if (obs::enabled()) {
    // Latency is wall-clock, so it is a counter (not part of the
    // virtual-time stage trace): fault-run traces stay rerun-identical.
    obs::add_counter("sched.replan_latency_s", request.now_s, latency);
  }
  return target;
}

int RePlanner::replan_locked(const rt::MigrationRequest& request) {
  const std::size_t member = request.member;
  WFE_REQUIRE(member < shape_.members.size(),
              "migration request names a member outside the shape");
  const std::size_t begin = slot_offset_[member];
  const std::size_t width = 1 + shape_.members[member].analyses.size();

  bool uses_dead = false;
  for (std::size_t s = begin; s < begin + width; ++s) {
    uses_dead = uses_dead || current_[s] == request.dead_node;
  }
  if (!uses_dead) return -1;

  // One candidate per surviving node, ascending: the member's occurrences
  // of the dead node all move to that target. Other members keep their
  // placement — each repairs itself when (and if) its own loss fires.
  std::vector<int> targets = request.up_nodes;
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  std::erase(targets, request.dead_node);
  if (targets.empty()) return -1;

  std::vector<Assignment> candidates;
  candidates.reserve(targets.size());
  for (const int target : targets) {
    Assignment candidate = current_;
    for (std::size_t s = begin; s < begin + width; ++s) {
      if (candidate[s] == request.dead_node) candidate[s] = target;
    }
    candidates.push_back(std::move(candidate));
  }

  // Same fixed-budget sampling rule as the planners.
  const std::vector<BatchScore> batch = evaluator_.score_assignments(
      shape_, candidates, options_.probe_steps, options_.probe_samples);
  // Repair candidates carry real node ids, so charge each for the
  // scripted-downtime nodes it actually occupies — migrating onto a node
  // that is itself scheduled to die should rank below a healthy target.
  std::vector<int> doomed_used(candidates.size(), 0);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    doomed_used[i] = doomed_used_of(risk_, candidates[i]);
  }
  const std::vector<ScoredCandidate> scored =
      risk_scored(batch, risk_, options_.probe_steps, doomed_used);
  const std::optional<std::size_t> winner = pick_winner(scored, candidates);
  if (!winner) return -1;

  ++replans_;
  current_ = candidates[*winner];
  return targets[*winner];
}

std::size_t RePlanner::replans() const {
  support::RankGuard guard(mutex_);
  return replans_;
}

std::size_t RePlanner::evaluations() const {
  support::RankGuard guard(mutex_);
  return evaluator_.evaluations();
}

double RePlanner::last_latency_s() const {
  support::RankGuard guard(mutex_);
  return last_latency_s_;
}

void RePlanner::attach_shared_cache(EvalCache* shared) {
  support::RankGuard guard(mutex_);
  evaluator_.attach_shared_cache(shared);
}

}  // namespace wfe::sched
