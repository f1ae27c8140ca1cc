// Golden-trace harness: locks the executor + observability stack against
// bit-level drift.
//
// Each scenario replays a small paper configuration deterministically and
// serializes both trace artifacts — the WFET stage trace and the obs JSONL
// span log — then compares them byte-for-byte against the files checked in
// under tests/golden/data/. Any change to event ordering, stage pricing,
// fault injection, obs emission, or exporter formatting shows up here as a
// normalized first-difference diff.
//
// A third artifact pins what the paper derives from each replay: the
// assessment (steady state, efficiency, indicators, objective, makespans),
// every double as its bits, in tests/golden/data/<scenario>.assess.
//
// The harness also pins the zero-observer-effect guarantee: a run executed
// with a recorder session installed must produce a stage trace
// byte-identical to the same run executed untraced.
//
// Regenerating (after an intentional model change):
//   tools/update_golden.sh        # or: WFENS_UPDATE_GOLDEN=1 ./test_golden
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/trace_io.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/str.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

#ifndef WFENS_GOLDEN_DIR
#error "WFENS_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace wfe {
namespace {

namespace fs = std::filesystem;

struct Scenario {
  const char* name;     ///< golden file stem
  const char* config;   ///< paper configuration to replay
  std::uint64_t steps;  ///< in situ step override (small, keeps goldens lean)
  double stage_error_prob;  ///< 0 = fault-free scenario
};

// Print a scenario by its name. Without this, GoogleTest prints the raw
// bytes of the struct — including the string pointers, which move with
// every build under ASLR — and the registered ctest names would change
// from one build to the next.
void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

// Two scenarios: a pristine replay and a faulted one exercising the
// resilience paths (transient faults + retry recovery), so the goldens
// cover both the fault-free fast path and the attempt/backoff machinery.
constexpr Scenario kScenarios[] = {
    {"cf_small", "Cf", 6, 0.0},
    {"cc_faulty", "Cc", 8, 0.05},
};

rt::SimulatedOptions scenario_options(const Scenario& sc) {
  rt::SimulatedOptions options;
  if (sc.stage_error_prob > 0.0) {
    options.faults.stage_error_prob = sc.stage_error_prob;
    options.faults.seed = 7;  // fixed and chosen to fire: goldens must
                              // replay exactly and cover the fault paths
    options.recovery.kind = res::RecoveryKind::kRetry;
  }
  return options;
}

rt::EnsembleSpec scenario_spec(const Scenario& sc) {
  rt::EnsembleSpec spec = wl::paper_config(sc.config).spec;
  spec.n_steps = sc.steps;
  return spec;
}

/// Replay a scenario. With `traced`, an obs session records into `log`.
rt::ExecutionResult run_scenario(const Scenario& sc, bool traced,
                                 obs::RunLog* log) {
  const rt::SimulatedExecutor exec(wl::cori_like_platform(),
                                   scenario_options(sc));
  const rt::EnsembleSpec spec = scenario_spec(sc);
  if (!traced) return exec.run(spec);
  obs::Recorder recorder;
  obs::Session session(recorder);
  rt::ExecutionResult result = exec.run(spec);
  if (log != nullptr) *log = recorder.take();
  return result;
}

fs::path golden_path(const std::string& file) {
  return fs::path(WFENS_GOLDEN_DIR) / file;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << path
                  << " — run tools/update_golden.sh to (re)generate";
    return {};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool update_mode() {
  const char* env = std::getenv("WFENS_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

void write_file(const fs::path& path, const std::string& content) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << "cannot write golden " << path;
  out << content;
}

/// Normalizing differ: bit-level comparison with a line-oriented first
/// difference report, so a drifted golden fails with *where* and *what*
/// instead of a multi-kilobyte string mismatch.
void expect_bytes_equal(const std::string& expected,
                        const std::string& actual,
                        const std::string& label) {
  if (expected == actual) return;
  std::istringstream e(expected), a(actual);
  std::string el, al;
  std::size_t line = 0;
  for (;;) {
    const bool has_e = static_cast<bool>(std::getline(e, el));
    const bool has_a = static_cast<bool>(std::getline(a, al));
    ++line;
    if (!has_e && !has_a) break;  // only trailing bytes differ
    if (!has_e || !has_a || el != al) {
      FAIL() << label << " drifted at line " << line << ":\n  golden: "
             << (has_e ? el : std::string("<end of file>"))
             << "\n  actual: " << (has_a ? al : std::string("<end of file>"))
             << "\nIf the change is intentional, regenerate with "
                "tools/update_golden.sh";
    }
  }
  FAIL() << label << " differs only in trailing bytes (sizes "
         << expected.size() << " vs " << actual.size() << ")";
}

class GoldenTrace : public ::testing::TestWithParam<Scenario> {};

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTrace,
                         ::testing::ValuesIn(kScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The WFET stage trace of an untraced run must match the checked-in golden
// byte for byte: the full executor stack (engine ordering, stage pricing,
// fault injection, recovery) is deterministic by contract.
TEST_P(GoldenTrace, StageTraceMatchesGolden) {
  const Scenario& sc = GetParam();
  const rt::ExecutionResult result = run_scenario(sc, false, nullptr);
  const std::string actual = met::trace_to_text(result.trace);
  const fs::path path = golden_path(std::string(sc.name) + ".wfet");
  if (update_mode()) {
    write_file(path, actual);
    GTEST_SKIP() << "updated " << path;
  }
  expect_bytes_equal(read_file(path), actual, path.filename().string());
}

/// The assessment of a replay as text, one value a line: its name, its
/// bits in hex and its decimal value; or the message of the error it
/// throws.
std::string assessment_text(const rt::EnsembleSpec& spec,
                            const rt::ExecutionResult& result) {
  std::string out;
  const auto line = [&out](const std::string& name, double v) {
    out += strprintf("%s %016llx %.17g\n", name.c_str(),
                     static_cast<unsigned long long>(
                         std::bit_cast<std::uint64_t>(v)),
                     v);
  };
  try {
    const rt::Assessment a = rt::assess(spec, result);
    for (const core::IndicatorKind kind :
         {core::IndicatorKind::kU, core::IndicatorKind::kUA,
          core::IndicatorKind::kUP, core::IndicatorKind::kUAP,
          core::IndicatorKind::kUPA}) {
      line(std::string("objective ") + core::to_string(kind),
           a.objective(kind));
    }
    out += strprintf("total_nodes %d\n", a.total_nodes);
    line("ensemble_makespan", a.ensemble_makespan_measured);
    for (std::size_t i = 0; i < a.members.size(); ++i) {
      const rt::MemberAssessment& m = a.members[i];
      const std::string p = strprintf("member%zu ", i);
      line(p + "S*", m.steady.sim.s);
      line(p + "W*", m.steady.sim.w);
      for (std::size_t j = 0; j < m.steady.analyses.size(); ++j) {
        line(p + strprintf("R*%zu", j), m.steady.analyses[j].r);
        line(p + strprintf("A*%zu", j), m.steady.analyses[j].a);
      }
      line(p + "E", m.efficiency);
      line(p + "sigma", m.sigma);
      line(p + "makespan", m.makespan_measured);
      line(p + "makespan_model", m.makespan_model);
    }
  } catch (const Error& e) {
    out += std::string("throws ") + e.what() + "\n";
  }
  return out;
}

// The assessment of the replay must match its golden bit for bit: the
// stage-trace golden pins the replay, this one pins what the paper's
// pipeline derives from it.
TEST_P(GoldenTrace, AssessmentMatchesGolden) {
  const Scenario& sc = GetParam();
  const rt::ExecutionResult result = run_scenario(sc, false, nullptr);
  const std::string actual = assessment_text(scenario_spec(sc), result);
  const fs::path path = golden_path(std::string(sc.name) + ".assess");
  if (update_mode()) {
    write_file(path, actual);
    GTEST_SKIP() << "updated " << path;
  }
  expect_bytes_equal(read_file(path), actual, path.filename().string());
}

// The obs JSONL span log of a traced run must match its golden too: the
// emission sites, interning order, sequence numbering and exporter
// formatting are all deterministic in simulated mode (virtual time only).
TEST_P(GoldenTrace, SpanLogMatchesGolden) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (WFENS_OBS=OFF)";
  }
  const Scenario& sc = GetParam();
  obs::RunLog log;
  run_scenario(sc, true, &log);
  const std::string actual = obs::runlog_to_jsonl(log);
  const fs::path path = golden_path(std::string(sc.name) + ".jsonl");
  if (update_mode()) {
    write_file(path, actual);
    GTEST_SKIP() << "updated " << path;
  }
  expect_bytes_equal(read_file(path), actual, path.filename().string());
}

// Zero observer effect, the harness's core guarantee: running with the
// recorder installed must not perturb the replay in any way — the stage
// trace is bit-identical with and without the session.
TEST_P(GoldenTrace, ObserverEffectIsZero) {
  const Scenario& sc = GetParam();
  const rt::ExecutionResult untraced = run_scenario(sc, false, nullptr);
  obs::RunLog log;
  const rt::ExecutionResult traced = run_scenario(sc, true, &log);
  EXPECT_EQ(met::trace_to_text(untraced.trace),
            met::trace_to_text(traced.trace));
  EXPECT_EQ(untraced.events_processed, traced.events_processed);
  if (obs::kCompiledIn) {
    EXPECT_FALSE(log.empty()) << "traced run recorded nothing";
    EXPECT_FALSE(traced.counters.empty());
  }
  EXPECT_TRUE(untraced.counters.empty());
}

// The checked-in JSONL golden must round-trip byte-identically through the
// parser — so the golden stays readable by wfens_report --timeline forever.
TEST_P(GoldenTrace, GoldenSpanLogRoundTrips) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (WFENS_OBS=OFF)";
  }
  if (update_mode()) GTEST_SKIP() << "golden update pass";
  const Scenario& sc = GetParam();
  const fs::path path = golden_path(std::string(sc.name) + ".jsonl");
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  const obs::RunLog log = obs::runlog_from_jsonl(text);
  EXPECT_EQ(obs::runlog_to_jsonl(log), text);
}

// The Chrome export of the faulted golden scenario carries spans from at
// least four subsystems: component tracks, the DTL view, the resilience
// track and the engine track.
TEST(GoldenTraceChrome, FaultedScenarioCoversFourSubsystems) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (WFENS_OBS=OFF)";
  }
  obs::RunLog log;
  run_scenario(kScenarios[1], true, &log);
  const std::vector<std::string> tracks = log.tracks();
  const auto has = [&](const std::string& t) {
    return std::find(tracks.begin(), tracks.end(), t) != tracks.end();
  };
  EXPECT_TRUE(has("sim0"));
  EXPECT_TRUE(has("dtl/m0"));
  EXPECT_TRUE(has("resilience"));
  EXPECT_TRUE(has("engine"));

  // And the export is structurally valid Chrome trace_event JSON.
  const json::Value doc = json::parse(obs::chrome_trace_json(log));
  const json::Value& events = doc.at("traceEvents");
  ASSERT_GT(events.as_array().size(), 0u);
  for (const json::Value& e : events.as_array()) {
    const std::string& ph = e.at("ph").as_string();
    EXPECT_TRUE(ph == "M" || ph == "X" || ph == "i" || ph == "C") << ph;
  }
}

}  // namespace
}  // namespace wfe
