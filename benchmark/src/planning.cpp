// The planning workloads: what a wfens_plan user waits for.
//
//   plan-cold        exhaustive plan of paper_like(3,2) on a 5-node pool, no
//                    shared cache: one huge fan-out batch of fresh probe
//                    replays plus caller-side enumeration (the write side of
//                    the evaluation cache).
//   plan-warm        the same demand planned against an EvalCache loaded
//                    from the file set-up wrote, alternating exhaustive and
//                    bai-search: no replays at all, so enumeration, keying,
//                    lookup and load are all that is left (the read side).
//   plan-stochastic  bai-search of paper_like(4,1) on a 4-node pool with
//                    jittered probes: seeded replays, arm statistics and
//                    thousands of one- or two-sample batches per plan, each
//                    crossing the pool barrier.
//
// The seed draws K = 4 demand variants and op i plans variant i mod 4.
// Variant 0 is the pure paper_like demand, so its committed outputs hold
// under every seed; variants 1-3 change only per-member cost constants, so
// the candidate set stays fixed and only which placement wins can move.
#include <algorithm>
#include <functional>
#include <optional>

#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "sched/bai.hpp"
#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "sched/eval_cache.hpp"
#include "sched/exhaustive.hpp"
#include "sched/greedy.hpp"
#include "sched/risk.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "workload/presets.hpp"

namespace wfe::bench {
namespace {

constexpr std::size_t kVariants = 4;
/// Repetitions inside one probe-cost span: a single 6-step probe takes tens
/// of microseconds, too short to time alone.
constexpr int kProbeReps = 20;
/// Empty fan-out batches inside one barrier span.
constexpr int kBarrierBatches = 200;

/// The seed's demand variants of `base` (variant 0 is `base` itself). Each
/// analysis's subsample stride is x1 or x2 — the heavy/light split of
/// bench_ext_hetero_analyses — and each MD stride one of {400, 800, 1600}.
/// The seed deals a fixed multiset of those constants out to the members
/// (strides cycling 400, 800, 1600; analyses alternating heavy and light)
/// rather than drawing each one: every seed then poses problems of equal
/// difficulty, which matters to bai-search, whose sample count jumps tenfold
/// between demands with a clear winner and demands with near-ties.
std::vector<sched::EnsembleShape> demand_variants(
    const sched::EnsembleShape& base, std::uint64_t seed) {
  static constexpr int kStrides[] = {400, 800, 1600};
  std::vector<int> strides;
  std::vector<int> factors;
  for (const sched::MemberShape& m : base.members) {
    strides.push_back(kStrides[strides.size() % 3]);
    for (std::size_t a = 0; a < m.analyses.size(); ++a) {
      factors.push_back(1 + static_cast<int>(factors.size() % 2));
    }
  }
  Xoshiro256 rng(seed);
  const auto shuffle = [&rng](std::vector<int>& deck) {
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.below(i)]);
    }
  };
  std::vector<sched::EnsembleShape> out{base};
  for (std::size_t v = 1; v < kVariants; ++v) {
    shuffle(strides);
    shuffle(factors);
    sched::EnsembleShape shape = base;
    std::size_t next_factor = 0;
    for (std::size_t i = 0; i < shape.members.size(); ++i) {
      shape.members[i].sim.stride = strides[i];
      for (rt::AnalysisSpec& a : shape.members[i].analyses) {
        a.cost.subsample_stride *= factors[next_factor++];
      }
    }
    out.push_back(std::move(shape));
  }
  return out;
}

/// What the checks compare for one plan.
struct PlanOutput {
  std::string placement;
  double objective = 0.0;  ///< deterministic probe objective of the winner
  double evaluations = 0.0;
  double samples = 0.0;
};

class Planning : public Workload {
 protected:
  Planning(const Context& context, sched::EnsembleShape base, int pool,
           sched::PlanOptions options)
      : context_(context),
        base_(std::move(base)),
        budget_{pool},
        options_(std::move(options)) {
    options_.threads = kPlanThreads;
  }

 public:
  std::string setup() override {
    platform_ = wl::cori_like_platform();
    shapes_ = demand_variants(base_, context_.seed);
    reference_.assign(kVariants, std::nullopt);
    check_eval_.emplace(platform_);
    std::string error = prepare();
    run_op(0, nullptr);
    const std::string warm_up = check_op(0);
    return error.empty() ? warm_up : error;
  }

  /// Probe costs, the pool barrier, and the layer calls a scheduler makes
  /// internally, timed after the op on the winner it just returned.
  void diagnose(std::uint64_t /*op*/, Tracer& tracer) override {
    if (!barrier_pool_) {
      barrier_pool_ = std::make_unique<exec::ThreadPool>(kPlanThreads);
      scenario_eval_.emplace(platform_, sched::probe_scenario(options_));
      rt::SimulatedOptions probe = sched::probe_scenario(options_);
      probe.trace_obs = false;
      probe_exec_.emplace(platform_, probe);
    }
    {
      Tracer::Scope span(tracer, "exec.barrier");
      const std::function<void(std::size_t, int)> noop =
          [](std::size_t, int) {};
      for (int b = 0; b < kBarrierBatches; ++b) {
        barrier_pool_->for_each_index(kPlanThreads, noop);
      }
      span.attr("batches", kBarrierBatches);
    }
    {
      // Scored at full depth as the scheduler's candidates are, so the
      // probe-depth copy Evaluator::score makes is in the time.
      Tracer::Scope span(tracer, "sched.probe_score");
      for (int k = 0; k < kProbeReps; ++k) {
        (void)scenario_eval_->score(last_spec_, options_.probe_steps);
      }
      span.attr("n", kProbeReps);
    }
    rt::EnsembleSpec probe = last_spec_;
    probe.n_steps = options_.probe_steps;
    rt::ExecutionResult result;
    {
      Tracer::Scope span(tracer, "runtime.probe_replay");
      for (int k = 0; k < kProbeReps; ++k) result = probe_exec_->run(probe);
      span.attr("n", kProbeReps);
    }
    {
      Tracer::Scope span(tracer, "runtime.probe_assess");
      for (int k = 0; k < kProbeReps; ++k) (void)rt::assess(probe, result);
      span.attr("n", kProbeReps);
    }
  }

  std::string check_op(std::uint64_t op) override {
    price_winner();
    std::optional<PlanOutput>& reference = reference_[op % kVariants];
    if (!reference) {
      std::string error = first_of_variant(op % kVariants);
      reference = last_;
      return error;
    }
    return compare(last_, *reference, true);
  }

  std::string expected_json() const override {
    const PlanOutput& o = *reference_[0];
    return strprintf(
        "\"%s\": {\"placement\": \"%s\", \"objective\": %.17g, "
        "\"evaluations\": %.17g, \"samples\": %.17g}",
        expected_key(), o.placement.c_str(), o.objective, o.evaluations,
        o.samples);
  }

 protected:
  /// Workload-specific set-up, run before the warm-up op.
  virtual std::string prepare() { return ""; }
  /// The expected.json section variant 0 is checked against.
  virtual const char* expected_key() const = 0;

  /// Checks on the first op of a variant, before it becomes the reference
  /// later ops must reproduce. Variant 0 must equal the committed outputs.
  virtual std::string first_of_variant(std::size_t variant) {
    if (variant != 0 || context_.expected.is_null()) return "";
    const json::Value& want = context_.expected.at(expected_key());
    PlanOutput committed;
    committed.placement = want.at("placement").as_string();
    committed.objective = want.at("objective").as_number();
    committed.evaluations = want.at("evaluations").as_number();
    committed.samples = want.at("samples").as_number();
    return compare(last_, committed, true);
  }

  static std::string compare(const PlanOutput& got, const PlanOutput& want,
                             bool counts) {
    if (got.placement != want.placement) {
      return "placement " + got.placement + ", expected " + want.placement;
    }
    if (got.objective != want.objective) {
      return mismatch("objective", got.objective, want.objective);
    }
    if (counts && got.evaluations != want.evaluations) {
      return mismatch("evaluations", got.evaluations, want.evaluations);
    }
    if (counts && got.samples != want.samples) {
      return mismatch("samples", got.samples, want.samples);
    }
    return "";
  }

  /// The scheduler returns no objective; price the winner with one
  /// deterministic probe, which also identifies the placement.
  void price_winner() {
    last_.objective =
        check_eval_->score(last_spec_, options_.probe_steps).objective;
  }

  void record(sched::Schedule schedule) {
    last_ = {placement_string(schedule.spec), 0.0,
             static_cast<double>(schedule.evaluations),
             static_cast<double>(schedule.samples)};
    last_spec_ = std::move(schedule.spec);
  }

  const sched::EnsembleShape& shape_of(std::uint64_t op) const {
    return shapes_[op % kVariants];
  }

  /// Exhaustive::plan driven through its public pieces — enumerate, build
  /// the batch evaluator, score, pick the winner — with a span on each, and
  /// the teardown of everything the plan allocated (the evaluator's worker
  /// threads included) in a span of its own, so the parts add up to the
  /// scheduler's wall time. `cache` (may be null) is attached as the shared
  /// tier and destroyed in the teardown, as a warm plan's cache would be.
  sched::Schedule traced_exhaustive(const sched::EnsembleShape& shape,
                                    std::unique_ptr<sched::EvalCache> cache,
                                    Tracer& tracer) const {
    std::vector<sched::Assignment> candidates;
    {
      Tracer::Scope span(tracer, "sched.enumerate");
      candidates = sched::enumerate_assignments(sched::slot_count(shape),
                                                budget_.node_pool);
      span.attr("candidates", static_cast<double>(candidates.size()));
    }
    std::unique_ptr<sched::BatchEvaluator> evaluator;
    {
      Tracer::Scope span(tracer, "sched.evaluator_ctor");
      evaluator = std::make_unique<sched::BatchEvaluator>(
          platform_, sched::probe_scenario(options_), options_.threads);
    }
    evaluator->attach_shared_cache(cache.get());
    std::vector<sched::BatchScore> scores;
    {
      Tracer::Scope span(tracer,
                         cache ? "sched.warm_score" : "sched.score_batch");
      scores = evaluator->score_assignments(shape, candidates,
                                            options_.probe_steps);
      const auto infeasible = std::count_if(
          scores.begin(), scores.end(),
          [](const sched::BatchScore& s) { return !s.feasible; });
      span.attr("candidates", static_cast<double>(candidates.size()));
      span.attr("fresh", static_cast<double>(evaluator->evaluations()));
      span.attr("infeasible", static_cast<double>(infeasible));
      span.attr("cache_hits", static_cast<double>(evaluator->cache_hits()));
      span.attr("shared_hits", static_cast<double>(evaluator->shared_hits()));
      span.attr("samples", static_cast<double>(evaluator->evaluations() +
                                               evaluator->cache_hits()));
      span.attr("threads", options_.threads);
    }
    sched::Schedule schedule;
    {
      Tracer::Scope span(tracer, "sched.pick_winner");
      std::vector<sched::ScoredCandidate> scored;
      scored.reserve(scores.size());
      for (const sched::BatchScore& s : scores) scored.push_back(s.scored());
      const auto winner = sched::pick_winner(scored, candidates);
      if (!winner) throw SpecError("no feasible placement within the budget");
      schedule.spec = sched::place(shape, candidates[*winner]);
      schedule.spec.n_steps = shape.n_steps;
      schedule.evaluations = evaluator->evaluations();
      schedule.cache_hits = evaluator->cache_hits();
      schedule.shared_hits = evaluator->shared_hits();
      schedule.samples = schedule.evaluations + schedule.cache_hits;
    }
    {
      Tracer::Scope span(tracer, "sched.teardown");
      evaluator.reset();
      cache.reset();
      std::vector<sched::Assignment>().swap(candidates);
      std::vector<sched::BatchScore>().swap(scores);
    }
    return schedule;
  }

  const Context& context_;
  const sched::EnsembleShape base_;
  const sched::ResourceBudget budget_;
  sched::PlanOptions options_;
  plat::PlatformSpec platform_;
  std::vector<sched::EnsembleShape> shapes_;
  std::vector<std::optional<PlanOutput>> reference_;
  PlanOutput last_;
  rt::EnsembleSpec last_spec_;
  std::optional<sched::Evaluator> check_eval_;  // deterministic, for checks

 private:
  // Diagnostics only, made on the first traced op.
  std::unique_ptr<exec::ThreadPool> barrier_pool_;
  std::optional<sched::Evaluator> scenario_eval_;
  std::optional<rt::SimulatedExecutor> probe_exec_;
};

class PlanCold final : public Planning {
 public:
  explicit PlanCold(const Context& context)
      : Planning(context, sched::EnsembleShape::paper_like(3, 2), 5, {}) {}

  void run_op(std::uint64_t op, Tracer* tracer) override {
    record(tracer ? traced_exhaustive(shape_of(op), nullptr, *tracer)
                  : sched::Exhaustive{}.plan(shape_of(op), platform_, budget_,
                                             options_));
  }

  /// The same fresh batch on one worker: the fan-out speed-up's base.
  void diagnose(std::uint64_t op, Tracer& tracer) override {
    Planning::diagnose(op, tracer);
    if (candidates_.empty()) {
      candidates_ = sched::enumerate_assignments(
          sched::slot_count(shape_of(op)), budget_.node_pool);
    }
    sched::BatchEvaluator one(platform_, sched::probe_scenario(options_), 1);
    Tracer::Scope span(tracer, "sched.score_batch_1t");
    (void)one.score_assignments(shape_of(op), candidates_,
                                options_.probe_steps);
    span.attr("fresh", static_cast<double>(one.evaluations()));
    span.attr("threads", 1);
  }

  double tail_percentile() const override { return 0.7; }

 protected:
  const char* expected_key() const override { return "plan_cold"; }

  /// An exhaustive search cannot lose to a heuristic on the objective it
  /// maximizes: the winner's probe-depth objective must be at least
  /// greedy-colocate's. (At full depth it can: the probe only ranks.)
  std::string first_of_variant(std::size_t variant) override {
    std::string error = Planning::first_of_variant(variant);
    if (!error.empty()) return error;
    const rt::EnsembleSpec greedy =
        sched::GreedyColocation{}
            .plan(shapes_[variant], platform_, budget_, {})
            .spec;
    const double heuristic =
        check_eval_->score(greedy, options_.probe_steps).objective;
    if (last_.objective < heuristic) {
      return strprintf("variant %zu: exhaustive objective %.17g below "
                       "greedy-colocate's %.17g",
                       variant, last_.objective, heuristic);
    }
    return "";
  }

 private:
  std::vector<sched::Assignment> candidates_;
};

class PlanWarm final : public Planning {
 public:
  explicit PlanWarm(const Context& context)
      : Planning(context, sched::EnsembleShape::paper_like(3, 2), 5, {}),
        cache_path_(context.out_dir + strprintf("/plan-warm-seed%llu.cache",
                                                static_cast<unsigned long long>(
                                                    context.seed))) {}

  /// Set-up plans four cold fills (~3 s): once per measuring process.
  int setups_per_process() const override { return 1; }

  /// Ops alternate exhaustive and bai-search in blocks of kVariants, so
  /// both schedulers plan every variant.
  void run_op(std::uint64_t op, Tracer* tracer) override {
    auto cache = std::make_unique<sched::EvalCache>();
    if (tracer) {
      {
        Tracer::Scope span(*tracer, "sched.cache_load");
        span.attr("entries", static_cast<double>(cache->load(cache_path_)));
      }
      record(traced_exhaustive(shape_of(op), std::move(cache), *tracer));
      return;
    }
    cache->load(cache_path_);
    sched::PlanOptions options = options_;
    options.shared_cache = cache.get();
    const sched::Scheduler& scheduler =
        (op / kVariants) % 2 == 0
            ? static_cast<const sched::Scheduler&>(exhaustive_)
            : static_cast<const sched::Scheduler&>(bai_);
    record(scheduler.plan(shape_of(op), platform_, budget_, options));
  }

  /// Every op must reproduce set-up's cold winner without a fresh replay.
  std::string check_op(std::uint64_t op) override {
    price_winner();
    if (last_.evaluations != 0.0) {
      return mismatch("fresh replays", last_.evaluations, 0.0);
    }
    return compare(last_, *reference_[op % kVariants], false);
  }

  double tail_percentile() const override { return 0.7; }

 protected:
  const char* expected_key() const override { return "plan_cold"; }

  /// The cold fills: plan every variant once into one cache, then save it.
  /// Their winners are the references, and variant 0's must equal the
  /// committed plan-cold outputs.
  std::string prepare() override {
    sched::EvalCache fill;
    sched::PlanOptions options = options_;
    options.shared_cache = &fill;
    std::string error;
    for (std::size_t v = 0; v < kVariants; ++v) {
      record(exhaustive_.plan(shapes_[v], platform_, budget_, options));
      price_winner();
      if (error.empty()) error = Planning::first_of_variant(v);
      reference_[v] = last_;
    }
    fill.save(cache_path_);
    return error;
  }

 private:
  const std::string cache_path_;
  const sched::Exhaustive exhaustive_;
  const sched::BaiSearch bai_;
};

class PlanStochastic final : public Planning {
 public:
  explicit PlanStochastic(const Context& context)
      : Planning(context, sched::EnsembleShape::paper_like(4, 1), 4,
                 stochastic_options()) {}

  void run_op(std::uint64_t op, Tracer* tracer) override {
    if (!tracer) {
      record(bai_.plan(shape_of(op), platform_, budget_, options_));
      return;
    }
    Tracer::Scope span(*tracer, "sched.plan");
    sched::Schedule schedule =
        bai_.plan(shape_of(op), platform_, budget_, options_);
    span.attr("fresh", static_cast<double>(schedule.evaluations));
    span.attr("samples", static_cast<double>(schedule.samples));
    span.attr("cache_hits", static_cast<double>(schedule.cache_hits));
    span.attr("probe_samples", static_cast<double>(options_.probe_samples));
    span.attr("threads", options_.threads);
    record(std::move(schedule));
  }

  /// bai-search runs its loop internally, so the layer calls it makes are
  /// timed here, one by one, outside the op.
  void diagnose(std::uint64_t op, Tracer& tracer) override {
    Planning::diagnose(op, tracer);
    {
      Tracer::Scope span(tracer, "sched.enumerate");
      const std::vector<sched::Assignment> arms =
          sched::enumerate_assignments(sched::slot_count(shape_of(op)),
                                       budget_.node_pool);
      span.attr("candidates", static_cast<double>(arms.size()));
    }
    std::unique_ptr<sched::BatchEvaluator> evaluator;
    {
      Tracer::Scope span(tracer, "sched.evaluator_ctor");
      evaluator = std::make_unique<sched::BatchEvaluator>(
          platform_, sched::probe_scenario(options_), options_.threads);
    }
    evaluator.reset();
    const sched::Evaluator seeded(platform_, sched::probe_scenario(options_));
    Tracer::Scope span(tracer, "runtime.seeded_probe");
    for (int k = 0; k < kProbeReps; ++k) {
      (void)seeded.score_seeded(last_spec_, options_.probe_steps,
                                static_cast<std::uint64_t>(k));
    }
    span.attr("n", kProbeReps);
  }

  double tail_percentile() const override { return 0.9; }

 protected:
  const char* expected_key() const override { return "plan_stochastic"; }

 private:
  /// Jittered probes with a sample budget of 2 per arm (bai-search's
  /// default budget is probe_samples x arms). The pure demand stops on its
  /// own well inside it (1657 fresh replays, 3846 samples); the dealt
  /// variants have near-tied arms and always spend the whole budget, so the
  /// cap keeps them near 2x its cost instead of 10x at 8 per arm.
  static sched::PlanOptions stochastic_options() {
    sched::PlanOptions options;
    options.jitter_cv = 0.1;
    options.probe_samples = 2;
    return options;
  }

  const sched::BaiSearch bai_;
};

}  // namespace

std::unique_ptr<Workload> make_planning(const std::string& name,
                                        const Context& context) {
  if (name == "plan-cold") return std::make_unique<PlanCold>(context);
  if (name == "plan-warm") return std::make_unique<PlanWarm>(context);
  if (name == "plan-stochastic") {
    return std::make_unique<PlanStochastic>(context);
  }
  return nullptr;
}

}  // namespace wfe::bench
