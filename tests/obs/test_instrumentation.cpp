// Property suite over the instrumented runtime: for swept paper
// configurations (and scheduler thread counts) the recorded RunLog must
// satisfy the structural invariants of the observability layer —
// well-formed spans per track, monotone counters, exact consistency with
// the met::Trace stage records, valid exports, and a zero observer effect.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/trace_io.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/simulated_executor.hpp"
#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "support/json.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe {
namespace {

constexpr double kTol = 1e-9;

struct SweepCase {
  const char* config;
  double stage_error_prob;  ///< > 0 exercises the resilience emissions too
};

constexpr SweepCase kCases[] = {
    {"Cf", 0.0},
    {"Cc", 0.0},
    {"C1.2", 0.0},
    {"C2.3", 0.0},
    {"Cc", 0.05},
};

// Without this gtest prints the raw bytes of SweepCase — including the
// `config` pointer — so discovered ctest names would change per build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.config << " p=" << c.stage_error_prob;
}

struct TracedRun {
  rt::ExecutionResult result;
  obs::RunLog log;
};

TracedRun traced_run(const SweepCase& c) {
  rt::SimulatedOptions options;
  if (c.stage_error_prob > 0.0) {
    options.faults.stage_error_prob = c.stage_error_prob;
    options.faults.seed = 7;  // known to fire within 8 steps on Cc
    options.recovery.kind = res::RecoveryKind::kRetry;
  }
  rt::EnsembleSpec spec = wl::paper_config(c.config).spec;
  spec.n_steps = c.stage_error_prob > 0.0 ? 8 : 7;
  const rt::SimulatedExecutor exec(wl::cori_like_platform(), options);
  TracedRun out;
  obs::Recorder recorder;
  obs::Session session(recorder);
  out.result = exec.run(spec);
  out.log = recorder.take();
  return out;
}

class InstrumentationSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    if (!obs::kCompiledIn) {
      GTEST_SKIP() << "observability compiled out (WFENS_OBS=OFF)";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Configs, InstrumentationSweep,
                         ::testing::ValuesIn(kCases), [](const auto& info) {
                           std::string name = info.param.config;
                           for (char& ch : name) {
                             if (ch == '.') ch = '_';
                           }
                           return name + (info.param.stage_error_prob > 0.0
                                              ? "_faulty"
                                              : "");
                         });

// Every span has end >= start, and spans on one *component* track never
// partially overlap: a component executes its stages sequentially, so its
// spans tile the time axis (boundaries may touch).
TEST_P(InstrumentationSweep, SpansAreWellFormedPerTrack) {
  const TracedRun run = traced_run(GetParam());
  for (const obs::Event& e : run.log.events) {
    EXPECT_GE(e.end, e.start) << "span #" << e.seq;
  }
  for (const met::ComponentId& id : run.result.trace.components()) {
    const std::vector<obs::Event> spans = run.log.spans_on(id.str());
    ASSERT_FALSE(spans.empty()) << id.str();
    // Emission order == completion order, so sorting by start must keep a
    // component's spans pairwise disjoint.
    std::vector<obs::Event> sorted = spans;
    // Tie-break equal starts by end so zero-length idle markers sort
    // before the stage that begins at the same instant.
    std::sort(sorted.begin(), sorted.end(),
              [](const obs::Event& a, const obs::Event& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      EXPECT_GE(sorted[i].start, sorted[i - 1].end - kTol)
          << id.str() << " spans overlap at " << sorted[i].start;
    }
  }
}

// The engine's "run" span bounds every virtual-time emission in the log:
// nothing is stamped outside the engine's clock range.
TEST_P(InstrumentationSweep, EngineRunSpanBoundsAllVirtualTimeSpans) {
  const TracedRun run = traced_run(GetParam());
  const std::vector<obs::Event> engine = run.log.spans_on("engine");
  ASSERT_EQ(engine.size(), 1u);
  EXPECT_EQ(run.log.str(engine[0].name), "run");
  for (const met::ComponentId& id : run.result.trace.components()) {
    for (const obs::Event& e : run.log.spans_on(id.str())) {
      EXPECT_GE(e.start, engine[0].start - kTol);
      EXPECT_LE(e.end, engine[0].end + kTol);
    }
  }
}

// Monotonic counters never move backwards, sample by sample, and the final
// sample equals the snapshot total attached to the log and the result.
TEST_P(InstrumentationSweep, CountersAreMonotoneAndMatchSnapshots) {
  const TracedRun run = traced_run(GetParam());
  ASSERT_FALSE(run.log.counters.empty());
  EXPECT_EQ(run.result.counters, run.log.counters);
  for (const obs::CounterValue& c : run.log.counters) {
    const std::vector<obs::Event> samples = run.log.samples_of(c.name);
    ASSERT_FALSE(samples.empty()) << c.name;
    if (c.kind == obs::CounterKind::kMonotonic) {
      for (std::size_t i = 1; i < samples.size(); ++i) {
        EXPECT_GE(samples[i].value, samples[i - 1].value) << c.name;
      }
    }
    EXPECT_EQ(samples.back().value, c.value) << c.name;
  }
}

// The engine's event counter agrees with the executor's own accounting.
TEST_P(InstrumentationSweep, EngineEventCounterMatchesResult) {
  const TracedRun run = traced_run(GetParam());
  const std::vector<obs::Event> samples = run.log.samples_of("engine.events");
  ASSERT_FALSE(samples.empty());
  EXPECT_EQ(samples.back().value,
            static_cast<double>(run.result.events_processed));
}

// Exact agreement with the stage trace: each component's obs spans are the
// met::Trace records of that component, in order, with mnemonic labels.
TEST_P(InstrumentationSweep, SpanSetMatchesStageTrace) {
  const TracedRun run = traced_run(GetParam());
  for (const met::ComponentId& id : run.result.trace.components()) {
    const auto records = run.result.trace.for_component(id);
    const std::vector<obs::Event> spans = run.log.spans_on(id.str());
    ASSERT_EQ(spans.size(), records.size()) << id.str();
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(run.log.str(spans[i].name),
                met::stage_mnemonic(records[i].kind))
          << id.str() << " #" << i;
      EXPECT_EQ(spans[i].start, records[i].start) << id.str() << " #" << i;
      EXPECT_EQ(spans[i].end, records[i].end) << id.str() << " #" << i;
    }
  }
}

// Faulted runs surface the resilience subsystem: fault instants on the
// resilience track and matching res.* counters.
TEST_P(InstrumentationSweep, FaultedRunsCoverResilience) {
  const SweepCase& c = GetParam();
  if (c.stage_error_prob == 0.0) {
    GTEST_SKIP() << "fault-free case";
  }
  const TracedRun run = traced_run(c);
  const std::vector<std::string> tracks = run.log.tracks();
  EXPECT_NE(std::find(tracks.begin(), tracks.end(), "resilience"),
            tracks.end());
  double faults = 0.0;
  for (const obs::CounterValue& cv : run.log.counters) {
    if (cv.name == "res.crash_kills" || cv.name == "res.transient_faults") {
      faults += cv.value;
    }
  }
  EXPECT_GT(faults, 0.0);
}

// Both exports of every swept log are valid: the Chrome trace parses as
// JSON with only known phases, and the JSONL log round-trips exactly.
TEST_P(InstrumentationSweep, ExportsAreValid) {
  const TracedRun run = traced_run(GetParam());
  const json::Value doc = json::parse(obs::chrome_trace_json(run.log));
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i" || ph == "C") << ph;
  }
  const std::string jsonl = obs::runlog_to_jsonl(run.log);
  EXPECT_EQ(obs::runlog_to_jsonl(obs::runlog_from_jsonl(jsonl)), jsonl);
}

// The sweep-wide observer-effect guarantee: tracing changes nothing about
// the run itself.
TEST_P(InstrumentationSweep, ObserverEffectIsZero) {
  const SweepCase& c = GetParam();
  const TracedRun traced = traced_run(c);
  rt::SimulatedOptions options;
  if (c.stage_error_prob > 0.0) {
    options.faults.stage_error_prob = c.stage_error_prob;
    options.faults.seed = 7;
    options.recovery.kind = res::RecoveryKind::kRetry;
  }
  rt::EnsembleSpec spec = wl::paper_config(c.config).spec;
  spec.n_steps = c.stage_error_prob > 0.0 ? 8 : 7;
  const rt::SimulatedExecutor exec(wl::cori_like_platform(), options);
  const rt::ExecutionResult untraced = exec.run(spec);
  EXPECT_EQ(met::trace_to_text(untraced.trace),
            met::trace_to_text(traced.result.trace));
  EXPECT_EQ(untraced.events_processed, traced.result.events_processed);
  EXPECT_TRUE(untraced.counters.empty());
}

// -- scheduler instrumentation, swept over thread counts ---------------------

class SchedulerSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (!obs::kCompiledIn) {
      GTEST_SKIP() << "observability compiled out (WFENS_OBS=OFF)";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Threads, SchedulerSweep, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST_P(SchedulerSweep, BatchEvaluationEmitsSchedulerTracks) {
  const int threads = GetParam();
  const sched::EnsembleShape shape = sched::EnsembleShape::paper_like(2, 1);
  const std::vector<sched::Assignment> candidates =
      sched::enumerate_assignments(sched::slot_count(shape), 3);
  ASSERT_FALSE(candidates.empty());

  sched::BatchEvaluator evaluator(wl::cori_like_platform(), threads);
  obs::Recorder recorder;
  obs::Session session(recorder);
  const auto scores = evaluator.score_assignments(shape, candidates, 4);
  const obs::RunLog log = recorder.take();

  ASSERT_EQ(scores.size(), candidates.size());
  const std::vector<obs::Event> batch = log.spans_on("scheduler");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(log.str(batch[0].name), "batch");

  // Candidate/evaluation counters mirror the evaluator's own accounting.
  double candidates_counted = 0.0, evaluations_counted = 0.0,
         infeasible_counted = 0.0;
  bool saw_worker_busy = false;
  for (const obs::CounterValue& c : log.counters) {
    if (c.name == "sched.candidates") candidates_counted = c.value;
    if (c.name == "sched.evaluations") evaluations_counted = c.value;
    if (c.name == "sched.infeasible") infeasible_counted = c.value;
    if (c.name.rfind("sched.w", 0) == 0) saw_worker_busy = true;
  }
  // sched.evaluations counts replays, as the evaluator does; the other
  // fresh items failed validation and count as sched.infeasible.
  std::size_t fresh = 0;
  for (const auto& s : scores) {
    if (!s.cached) ++fresh;
  }
  EXPECT_EQ(candidates_counted, static_cast<double>(candidates.size()));
  EXPECT_EQ(evaluations_counted,
            static_cast<double>(evaluator.evaluations()));
  EXPECT_EQ(infeasible_counted,
            static_cast<double>(fresh - evaluator.evaluations()));
  EXPECT_GT(evaluator.evaluations(), 0u);
  EXPECT_TRUE(saw_worker_busy);

  // One per-worker evaluate span per parallel-phase item.
  std::size_t evaluate_spans = 0;
  for (const std::string& track : log.tracks()) {
    if (track.rfind("sched/w", 0) == 0) {
      evaluate_spans += log.spans_on(track).size();
    }
  }
  EXPECT_EQ(evaluate_spans, fresh);
}

TEST_P(SchedulerSweep, MemoHitsAreCountedOnRepeatBatches) {
  const int threads = GetParam();
  const sched::EnsembleShape shape = sched::EnsembleShape::paper_like(2, 1);
  const std::vector<sched::Assignment> candidates =
      sched::enumerate_assignments(sched::slot_count(shape), 3);

  sched::BatchEvaluator evaluator(wl::cori_like_platform(), threads);
  (void)evaluator.score_assignments(shape, candidates, 4);

  obs::Recorder recorder;
  obs::Session session(recorder);
  const auto scores = evaluator.score_assignments(shape, candidates, 4);
  const obs::RunLog log = recorder.take();

  // Second pass: everything memoized, nothing fresh.
  for (const auto& s : scores) {
    if (s.feasible) {
      EXPECT_TRUE(s.cached);
    }
  }
  double memo_hits = 0.0;
  for (const obs::CounterValue& c : log.counters) {
    if (c.name == "sched.memo_hits") memo_hits = c.value;
  }
  EXPECT_GT(memo_hits, 0.0);
}

TEST(SchedulerThreads, ScoresAreThreadCountInvariantWhileTraced) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (WFENS_OBS=OFF)";
  }
  const sched::EnsembleShape shape = sched::EnsembleShape::paper_like(2, 1);
  const std::vector<sched::Assignment> candidates =
      sched::enumerate_assignments(sched::slot_count(shape), 3);
  std::vector<std::vector<double>> objectives;
  for (const int threads : {1, 2, 4}) {
    sched::BatchEvaluator evaluator(wl::cori_like_platform(), threads);
    obs::Recorder recorder;
    obs::Session session(recorder);
    const auto scores = evaluator.score_assignments(shape, candidates, 4);
    std::vector<double> row;
    for (const auto& s : scores) {
      row.push_back(s.feasible ? s.eval.objective : -1.0);
    }
    objectives.push_back(std::move(row));
  }
  EXPECT_EQ(objectives[0], objectives[1]);
  EXPECT_EQ(objectives[0], objectives[2]);
}

}  // namespace
}  // namespace wfe
