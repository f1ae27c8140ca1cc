#include "sched/replanner.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"

namespace wfe::sched {

namespace {

/// The offline plan's options, its spare nodes returned to the pool: they
/// are the headroom repairs migrate onto.
PlanOptions repair_options(PlanOptions options) {
  options.spare_nodes = 0;
  return options;
}

}  // namespace

RePlanner::RePlanner(EnsembleShape shape, const plat::PlatformSpec& platform,
                     PlanOptions options)
    : shape_(std::move(shape)),
      options_(repair_options(std::move(options))),
      run_(shape_, platform, {platform.node_count}, options_) {
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

  const std::optional<std::size_t> winner =
      pick_winner(run_.score(candidates), candidates);
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
  return run_.evaluations();
}

double RePlanner::last_latency_s() const {
  support::RankGuard guard(mutex_);
  return last_latency_s_;
}

}  // namespace wfe::sched
