// WFET trace persistence round-trips and malformation handling.
#include "metrics/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "runtime/simulated_executor.hpp"
#include "support/error.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe::met {
namespace {

using core::StageKind;

Trace sample_trace() {
  std::vector<StageRecord> records{
      {{0, -1}, 0, StageKind::kSimulate, 0.0, 1.5,
       plat::HwCounters{1e9, 2e9, 1e7, 4e5}},
      {{0, -1}, 0, StageKind::kSimIdle, 1.5, 1.5, {}},
      {{0, -1}, 0, StageKind::kWrite, 1.5, 1.501, {}},
      {{0, 0}, 0, StageKind::kAnaIdle, 0.0, 1.501, {}},
      {{0, 0}, 0, StageKind::kRead, 1.501, 1.6, {}},
      {{0, 0}, 0, StageKind::kAnalyze, 1.6, 2.9,
       plat::HwCounters{5e8, 3e9, 5e7, 6e6}},
  };
  return Trace(std::move(records));
}

bool traces_equal(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const StageRecord& x = a.records()[i];
    const StageRecord& y = b.records()[i];
    if (!(x.component == y.component) || x.step != y.step ||
        x.kind != y.kind || x.start != y.start || x.end != y.end ||
        x.counters.instructions != y.counters.instructions ||
        x.counters.cycles != y.counters.cycles ||
        x.counters.llc_references != y.counters.llc_references ||
        x.counters.llc_misses != y.counters.llc_misses) {
      return false;
    }
  }
  return true;
}

TEST(TraceIo, MnemonicsAreStable) {
  EXPECT_EQ(stage_mnemonic(StageKind::kSimulate), "S");
  EXPECT_EQ(stage_mnemonic(StageKind::kSimIdle), "IS");
  EXPECT_EQ(stage_mnemonic(StageKind::kWrite), "W");
  EXPECT_EQ(stage_mnemonic(StageKind::kRead), "R");
  EXPECT_EQ(stage_mnemonic(StageKind::kAnalyze), "A");
  EXPECT_EQ(stage_mnemonic(StageKind::kAnaIdle), "IA");
  EXPECT_EQ(stage_mnemonic(StageKind::kFault), "F");
  EXPECT_EQ(stage_mnemonic(StageKind::kBackoff), "B");
  EXPECT_EQ(stage_mnemonic(StageKind::kCheckpoint), "CP");
  EXPECT_EQ(stage_mnemonic(StageKind::kRestart), "RS");
}

TEST(TraceIo, ResilienceKindsRoundTripExactly) {
  // A trace as the fault-injecting executor would emit it: killed stages,
  // backoffs, checkpoints and a restart, interleaved with normal stages.
  std::vector<StageRecord> records{
      {{0, -1}, 0, StageKind::kSimulate, 0.0, 1.5,
       plat::HwCounters{1e9, 2e9, 1e7, 4e5}},
      {{0, -1}, 1, StageKind::kFault, 1.5, 1.9, {}},
      {{0, -1}, 1, StageKind::kBackoff, 1.9, 2.4, {}},
      {{0, -1}, 1, StageKind::kCheckpoint, 2.4, 2.9, {}},
      {{0, 0}, 1, StageKind::kFault, 2.0, 2.2, {}},
      {{0, -1}, 0, StageKind::kRestart, 3.0, 5.0, {}},
      {{0, -1}, 1, StageKind::kSimulate, 5.0, 6.5,
       plat::HwCounters{1e9, 2e9, 1e7, 4e5}},
  };
  const Trace original(std::move(records));
  const Trace back = trace_from_text(trace_to_text(original));
  EXPECT_TRUE(traces_equal(original, back));
  const Trace file_back = trace_from_text(trace_to_text(back));
  EXPECT_TRUE(traces_equal(original, file_back));
}

TEST(TraceIo, FaultyExecutionRoundTripsBitExactly) {
  rt::SimulatedOptions options;
  options.faults = wl::node_crashes(150.0, 15.0);
  options.recovery.kind = res::RecoveryKind::kCheckpointRestart;
  options.recovery.checkpoint_period = 2;
  options.recovery.max_restarts = 50;
  rt::SimulatedExecutor exec(wl::cori_like_platform(), options);
  auto cfg = wl::paper_config("C1.5");
  cfg.spec.n_steps = 6;
  const rt::ExecutionResult result = exec.run(cfg.spec);
  ASSERT_GT(result.failure_summary.faults_injected(), 0u)
      << "scenario did not exercise the resilience kinds";
  const Trace back = trace_from_text(trace_to_text(result.trace));
  EXPECT_TRUE(traces_equal(result.trace, back));
}

TEST(TraceIo, TextRoundTripIsExact) {
  const Trace original = sample_trace();
  const Trace back = trace_from_text(trace_to_text(original));
  EXPECT_TRUE(traces_equal(original, back));
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  const Trace back = trace_from_text(trace_to_text(Trace{}));
  EXPECT_TRUE(back.empty());
}

TEST(TraceIo, RealExecutionRoundTripsBitExactly) {
  rt::SimulatedExecutor exec(wl::cori_like_platform());
  auto cfg = wl::paper_config("C1.5");
  cfg.spec.n_steps = 4;
  const Trace original = exec.run(cfg.spec).trace;
  const Trace back = trace_from_text(trace_to_text(original));
  EXPECT_TRUE(traces_equal(original, back));
}

TEST(TraceIo, RejectsMissingHeader) {
  EXPECT_THROW((void)trace_from_text("WFET 2\nend 0\n"), SerializationError);
  EXPECT_THROW((void)trace_from_text(""), SerializationError);
}

TEST(TraceIo, RejectsMissingTrailer) {
  std::string text = trace_to_text(sample_trace());
  text.resize(text.rfind("end"));
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, RejectsCountMismatch) {
  std::string text = "WFET 1\nend 3\n";
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, RejectsUnknownMnemonic) {
  const std::string text =
      "WFET 1\nrecord 0 -1 0 Z 0 1 0 0 0 0\nend 1\n";
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, RejectsMalformedRecord) {
  const std::string text = "WFET 1\nrecord 0 -1 0 S 0\nend 1\n";
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, RejectsNegativeDuration) {
  const std::string text =
      "WFET 1\nrecord 0 -1 0 S 2 1 0 0 0 0\nend 1\n";
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, RejectsAnalysisIndexBelowMinusOne) {
  // -1 is the simulation, 0.. its analyses; nothing else names a component.
  const std::string text =
      "WFET 1\nrecord 0 -7 0 A 0 1 0 0 0 0\nend 1\n";
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, RejectsUnknownTag) {
  const std::string text = "WFET 1\nbogus line\nend 0\n";
  EXPECT_THROW((void)trace_from_text(text), SerializationError);
}

TEST(TraceIo, CsvHasHeaderAndOneLinePerRecord) {
  const std::string csv = trace_to_csv(sample_trace());
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u + sample_trace().size());
  EXPECT_EQ(csv.find("member,analysis,step,stage"), 0u);
}

TEST(TraceIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "wfens-trace-io-test.wfet";
  const Trace original = sample_trace();
  save_trace(path, original);
  const Trace back = load_trace(path);
  EXPECT_TRUE(traces_equal(original, back));
  std::filesystem::remove(path);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/trace.wfet"), Error);
}

}  // namespace
}  // namespace wfe::met
