// Candidate generation and evaluation keys: the direct canonical-form
// generator against a brute-force odometer, the per-plan key layout shared
// by score_specs() and score_assignments(), and the seeded-sample identity
// that must not move when the key layout does.
#include "sched/eval_key.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "sched/eval_cache.hpp"
#include "sched/risk.hpp"
#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

/// The historical enumeration, kept here as the reference: walk all
/// pool^slots assignments in lexicographic order and keep the first member
/// of each relabeling class.
std::vector<Assignment> odometer_reference(std::size_t slots, int pool) {
  std::vector<Assignment> out;
  std::set<Assignment> seen;
  Assignment a(slots, 0);
  for (;;) {
    Assignment canon = canonical(a, NodeClasses::one(pool));
    if (seen.insert(canon).second) out.push_back(std::move(canon));
    std::size_t pos = slots;
    while (pos > 0) {
      if (++a[pos - 1] < pool) break;
      a[pos - 1] = 0;
      --pos;
    }
    if (pos == 0) break;
  }
  return out;
}

/// Sum over k <= pool of the Stirling numbers of the second kind S(n, k):
/// the number of ways to split n components into at most `pool` nodes.
std::uint64_t stirling_sum(std::size_t n, int pool) {
  std::vector<std::vector<std::uint64_t>> s(
      n + 1, std::vector<std::uint64_t>(n + 1, 0));
  s[0][0] = 1;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t k = 1; k <= i; ++k) {
      s[i][k] = k * s[i - 1][k] + s[i - 1][k - 1];
    }
  }
  std::uint64_t total = 0;
  for (std::size_t k = 1; k <= n && k <= static_cast<std::size_t>(pool);
       ++k) {
    total += s[n][k];
  }
  return total;
}

TEST(Enumeration, DirectGeneratorEqualsOdometerReference) {
  int cases = 0;
  for (std::size_t slots = 1; slots <= 17; ++slots) {
    for (int pool = 1; pool <= 12; ++pool) {
      if (std::pow(pool, static_cast<double>(slots)) > 2e5) continue;
      EXPECT_EQ(enumerate_assignments(slots, pool),
                odometer_reference(slots, pool))
          << "slots=" << slots << " pool=" << pool;
      ++cases;
    }
  }
  EXPECT_GT(cases, 50);
}

TEST(Enumeration, CountsAreStirlingSums) {
  EXPECT_EQ(enumerate_assignments(9, 5).size(), 18002u);  // paper_like(3,2)
  EXPECT_EQ(enumerate_assignments(8, 4).size(), 2795u);   // paper_like(4,1)
  for (std::size_t slots = 1; slots <= 10; ++slots) {
    for (int pool = 1; pool <= 7; ++pool) {
      EXPECT_EQ(enumerate_assignments(slots, pool).size(),
                stirling_sum(slots, pool))
          << "slots=" << slots << " pool=" << pool;
    }
  }
}

/// Each node of 0..nodes-1 in a class of its own.
NodeClasses singletons(int nodes) {
  std::vector<int> tag;
  for (int n = 0; n < nodes; ++n) tag.push_back(n);
  return NodeClasses(tag);
}

/// Brute-force orbits: walk all pool^slots assignments in lexicographic
/// order and keep the first of each orbit. Two assignments share an orbit
/// when they split the slots into the same blocks and give each block a
/// node of the same class; the first one walked is the lexicographically
/// smallest. No relabelling is involved.
std::vector<Assignment> orbit_reference(std::size_t slots,
                                        const NodeClasses& classes) {
  const int pool = classes.size();
  std::vector<Assignment> out;
  std::set<std::vector<int>> seen;
  Assignment a(slots, 0);
  for (;;) {
    std::vector<int> signature;  // per slot: first slot on its node, class
    for (std::size_t i = 0; i < slots; ++i) {
      std::size_t first = 0;
      while (a[first] != a[i]) ++first;
      signature.push_back(static_cast<int>(first));
      signature.push_back(classes.class_of(a[i]));
    }
    if (seen.insert(signature).second) out.push_back(a);
    std::size_t pos = slots;
    while (pos > 0) {
      if (++a[pos - 1] < pool) break;
      a[pos - 1] = 0;
      --pos;
    }
    if (pos == 0) break;
  }
  return out;
}

/// The partitions the generator is checked on: one class, singletons, and
/// healthy/doomed splits of one class (doomed first, last, every other).
std::vector<NodeClasses> partitions(int pool) {
  std::vector<NodeClasses> out = {NodeClasses::one(pool),
                                  singletons(pool)};
  for (const auto doomed : {+[](int n, int) { return n == 0; },
                            +[](int n, int p) { return n == p - 1; },
                            +[](int n, int) { return n % 2 == 1; }}) {
    std::vector<int> tag;
    for (int n = 0; n < pool; ++n) tag.push_back(doomed(n, pool) ? 1 : 0);
    out.emplace_back(tag);
  }
  return out;
}

TEST(Enumeration, GeneratorEqualsBruteForceOrbits) {
  int cases = 0;
  for (std::size_t slots = 1; slots <= 17; ++slots) {
    for (int pool = 1; pool <= 12; ++pool) {
      if (std::pow(pool, static_cast<double>(slots)) > 2e5) continue;
      for (const NodeClasses& classes : partitions(pool)) {
        const std::vector<Assignment> all =
            enumerate_assignments(slots, classes);
        ASSERT_EQ(all, orbit_reference(slots, classes))
            << "slots=" << slots << " pool=" << pool
            << " classes=" << classes.class_count();
        EXPECT_EQ(candidate_count(slots, classes),
                  static_cast<double>(all.size()));
        for (const Assignment& a : all) ASSERT_EQ(canonical(a, classes), a);
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 250);
}

TEST(Enumeration, NodeClassesFollowTheProbeAndTheDoomedNodes) {
  const plat::PlatformSpec platform = wl::cori_like_platform();
  const res::FaultSpec clean;
  EXPECT_EQ(node_classes(platform, clean), NodeClasses::one(8));
  EXPECT_EQ(node_classes(platform, clean, 5), NodeClasses::one(5));
  // Doomed nodes form one class of their own within the pool.
  EXPECT_EQ(node_classes(platform, clean, 5, {1, 3, 6}),
            NodeClasses({0, 1, 0, 1, 0}));
  // Straggler windows and several interconnect groups tell nodes apart.
  EXPECT_EQ(node_classes(platform, wl::degraded_nodes(200.0), 5, {1}),
            singletons(5));
  plat::PlatformSpec grouped = platform;
  grouped.interconnect.group_size = 4;
  EXPECT_EQ(node_classes(grouped, clean), singletons(8));
}

TEST(Enumeration, RefusesSearchesOverTheCap) {
  // 12 components on 8 interchangeable nodes, the largest search the old
  // 12-component limit allowed, stays under the cap; 13 do not.
  EXPECT_EQ(candidate_count(12, NodeClasses::one(8)), 4189550.0);
  EXPECT_LE(4189550u, kMaxCandidates);
  EXPECT_THROW((void)enumerate_assignments(13, NodeClasses::one(8)),
               SpecError);
  // Under straggler probes every labelling counts: 4^12 > the cap.
  EXPECT_EQ(candidate_count(12, singletons(4)), 16777216.0);
  EXPECT_THROW((void)enumerate_assignments(12, singletons(4)),
               SpecError);
}

// ------------------------------------------------------------------- keys

class KeyLayout : public ::testing::Test {
 protected:
  const plat::PlatformSpec platform_ = wl::cori_like_platform();
  const EnsembleShape shape_ = EnsembleShape::paper_like(2, 1);
  const Assignment a_ = {0, 1, 1, 0};
  EvalCache shared_;

  /// A fresh evaluator on the shared tier, as a new plan would build one.
  std::unique_ptr<BatchEvaluator> fresh() {
    auto ev = std::make_unique<BatchEvaluator>(platform_, /*threads=*/1);
    ev->attach_shared_cache(&shared_);
    return ev;
  }
};

TEST_F(KeyLayout, SpecsAndAssignmentsShareOneEntry) {
  const auto by_spec = fresh();
  const auto spec_scores = by_spec->score_specs({place(shape_, a_)});
  EXPECT_EQ(by_spec->evaluations(), 1u);
  EXPECT_EQ(shared_.size(), 1u);

  const auto by_assignment = fresh();
  const auto scores = by_assignment->score_assignments(shape_, {a_});
  EXPECT_EQ(by_assignment->evaluations(), 0u);
  EXPECT_EQ(by_assignment->shared_hits(), 1u);
  EXPECT_EQ(shared_.size(), 1u);
  EXPECT_EQ(scores[0].eval.objective, spec_scores[0].eval.objective);
}

TEST_F(KeyLayout, RelabeledAssignmentHitsTheSameKey) {
  const auto first = fresh();
  (void)first->score_assignments(shape_, {a_});
  const auto second = fresh();
  (void)second->score_assignments(shape_, {{2, 0, 0, 2}});
  EXPECT_EQ(second->evaluations(), 0u);
  EXPECT_EQ(second->shared_hits(), 1u);
  const auto third = fresh();
  (void)third->score_specs({place(shape_, {1, 2, 2, 1})});
  EXPECT_EQ(third->evaluations(), 0u);
  EXPECT_EQ(shared_.size(), 1u);
}

TEST_F(KeyLayout, ChangedCostConstantMisses) {
  const auto first = fresh();
  (void)first->score_assignments(shape_, {a_});
  EnsembleShape heavier = shape_;
  heavier.members[1].analyses[0].cost.subsample_stride *= 2;
  const auto second = fresh();
  (void)second->score_assignments(heavier, {a_});
  EXPECT_EQ(second->evaluations(), 1u);
  EXPECT_EQ(second->shared_hits(), 0u);
  EXPECT_EQ(shared_.size(), 2u);
}

TEST_F(KeyLayout, KeysCarryTheModelDigest) {
  // The evaluator stores its score under the key built from this binary's
  // model digest, and an entry some other model left under its own digest
  // is never served.
  const std::uint64_t demand = demand_digest(shape_);
  const std::uint64_t scenario = scenario_fingerprint(rt::SimulatedOptions{});
  PlacementKeys keys(NodeClasses::one(platform_.node_count));
  const auto key_under = [&](std::uint64_t model) {
    return keys.of(key_prefix(platform_.fingerprint(), scenario, 6, demand,
                              model),
                   a_);
  };
  const std::uint64_t ours = key_under(model_digest());
  const std::uint64_t theirs = key_under(model_digest() ^ 1);
  ASSERT_NE(ours, theirs);
  CachedEval stale;
  stale.feasible = true;
  stale.eval.objective = -1.0;
  shared_.insert(std::span<const std::uint64_t>(&theirs, 1),
                 std::span<const CachedEval>(&stale, 1));

  const auto ev = fresh();
  const auto scores = ev->score_assignments(shape_, {a_});
  EXPECT_EQ(ev->evaluations(), 1u);
  EXPECT_EQ(ev->shared_hits(), 0u);
  EXPECT_NE(scores[0].eval.objective, -1.0);
  const auto out = shared_.lookup(std::span<const std::uint64_t>(&ours, 1));
  ASSERT_TRUE(out.front());
  EXPECT_EQ(out.front()->eval.objective, scores[0].eval.objective);
}

TEST(ModelDigest, IsPinnedSoCacheFilesOutliveARefactor) {
  // Persisted scores are keyed under this digest (the canary replay's
  // stages, its objective and its makespan). A refactor of the replay or
  // the assessment must leave it as it is, or every cache file on disk
  // stops serving; only a deliberate model change updates this value.
  EXPECT_EQ(model_digest(), 0x10dcd3dfccc7ff36u);
}

TEST(ModelDigest, IsStableAndMovesNoEvaluatorCounter) {
  const std::uint64_t digest = model_digest();
  EXPECT_NE(digest, 0u);
  EXPECT_EQ(model_digest(), digest);
  BatchEvaluator ev(wl::cori_like_platform(), /*threads=*/1);
  EXPECT_EQ(ev.evaluations(), 0u);
  EXPECT_EQ(ev.events_processed(), 0u);
}

TEST(DemandDigest, ShapeAndPlacedSpecAgree) {
  const EnsembleShape shape = EnsembleShape::paper_like(3, 2);
  const rt::EnsembleSpec spec = place(shape, {0, 0, 1, 1, 2, 2, 0, 1, 2});
  EXPECT_EQ(demand_digest(spec), demand_digest(shape));
  EXPECT_EQ(demand_digest(EnsembleShape::of(spec)), demand_digest(shape));
}

TEST(PlacementKeysTest, OutOfPoolNodesShareOneInfeasibleLabel) {
  PlacementKeys keys(NodeClasses::one(4));
  EXPECT_EQ(keys.of(7, Assignment{0, 9}), keys.of(7, Assignment{0, -3}));
  EXPECT_NE(keys.of(7, Assignment{0, 9}), keys.of(7, Assignment{0, 1}));
  EXPECT_NE(keys.of(7, Assignment{0, 1}), keys.of(8, Assignment{0, 1}));
}

// ------------------------------------------------------------ sample seeds

TEST(SampleSeeds, MatchThePinnedPreRekeyValues) {
  // Literals computed by the previous key layout (the spec-level memo
  // digest of place(shape, arm), mixed with the sample index). Changing
  // them changes every seeded replay bai-search makes.
  const auto platform = wl::cori_like_platform();
  BatchEvaluator det(platform, /*threads=*/1);
  EXPECT_EQ(det.sample_seed(EnsembleShape::paper_like(2, 1), {0, 1, 1, 0}, 3),
            0x6beddc11a9b065abULL);

  PlanOptions options;
  options.jitter_cv = 0.1;
  options.probe_samples = 2;
  BatchEvaluator jittered(platform, probe_scenario(options), /*threads=*/1);
  const EnsembleShape shape = EnsembleShape::paper_like(4, 1);
  const Assignment arm = {0, 1, 2, 3, 0, 1, 2, 3};
  EXPECT_EQ(jittered.sample_seed(shape, arm, 0), 0x581f199541bcf99bULL);
  EXPECT_EQ(jittered.sample_seed(shape, arm, 5), 0xb50f6eb0628ad7feULL);
  // A relabeled arm is the same candidate, hence the same draws.
  EXPECT_EQ(jittered.sample_seed(shape, {3, 2, 1, 0, 3, 2, 1, 0}, 5),
            0xb50f6eb0628ad7feULL);
}

}  // namespace
}  // namespace wfe::sched
