// Shared pieces of wfens_bench, the benchmark program: the span tracer,
// the workload interface the run loop drives, and the helpers the output
// checks share.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/spec.hpp"
#include "support/json.hpp"

namespace wfe::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Planner worker threads for every planning workload: fixed, so the op is
/// the same on every host (the run warns when the host has fewer cores).
inline constexpr int kPlanThreads = 4;

/// In-memory span recorder for traced ops. A span holds its name, start and
/// end (seconds since the tracer was made), its parent span and the op id;
/// attributes carry the counts measured at the same boundary. Spans are
/// written as JSONL only when the run ends, so recording costs one clock
/// read and one vector append per boundary.
class Tracer {
 public:
  /// Records one span from construction to destruction, nested under the
  /// span open when it was made.
  class Scope {
   public:
    /// `name` must outlive the tracer (span names are string literals).
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void attr(const char* key, double value);

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// Spans opened from now on belong to op `op`.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    std::uint64_t op = 0;
    std::vector<std::pair<const char*, double>> attrs;
  };

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  long open_ = -1;
  std::uint64_t op_ = 0;
};

/// What every workload gets from the command line.
struct Context {
  std::uint64_t seed = 0;
  /// benchmark/expected.json; null while --print-expected records it.
  json::Value expected;
  std::string out_dir;   ///< where the run may write files
};

/// One workload: a closed loop of ops with one client. The run loop times
/// run_op() only; set-up, diagnostics and checks happen outside that time.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input from the seed and run the untimed warm-up op.
  /// Called several times per run (set-up time is reported as a median);
  /// each call replaces the state of the previous one. Returns "" when the
  /// warm-up op's outputs are correct, else what was wrong.
  virtual std::string setup() = 0;

  /// One op; `tracer` is null on the untraced path a user takes.
  virtual void run_op(std::uint64_t op, Tracer* tracer) = 0;

  /// Layer measurements taken after a traced op, outside its wall time.
  virtual void diagnose(std::uint64_t /*op*/, Tracer& /*tracer*/) {}

  /// Check the outputs of the last run_op(); "" when correct.
  virtual std::string check_op(std::uint64_t op) = 0;

  /// Set-ups each measuring process of a timed run makes; setup_s is the
  /// median over all of them. Three, so that the median is a set-up in a
  /// warm process rather than one paying a fresh process's first touches.
  virtual int setups_per_process() const { return 3; }

  /// A traced run traces every n-th input (all of them run untraced), so
  /// a run of cheap ops does not record millions of spans.
  virtual std::uint64_t trace_every() const { return 1; }

  /// The percentile op_tail_s reports: the highest one that leaves at
  /// least ten ops beyond it at this workload's usual op count.
  virtual double tail_percentile() const = 0;

  /// This workload's section of expected.json, from the warm-up op; empty
  /// when it checks against another workload's section.
  virtual std::string expected_json() const { return ""; }
};

std::unique_ptr<Workload> make_paper_replay(const Context& context);
/// "plan-cold", "plan-warm" or "plan-stochastic"; null for any other name.
std::unique_ptr<Workload> make_planning(const std::string& name,
                                        const Context& context);

/// Node sets of every component, "sim/ana,ana;sim/ana,..." per member.
std::string placement_string(const rt::EnsembleSpec& spec);

/// `what` differs from its expected value: a one-line reason.
std::string mismatch(std::string_view what, double got, double want);

}  // namespace wfe::bench
