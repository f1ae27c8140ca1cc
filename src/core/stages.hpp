// The fine-grained stage algebra of the paper's execution model (§3.1).
//
// Every simulation step divides into: a simulation stage S, an idle stage
// I^S, and a writing stage W, in that order. Every analysis step divides
// into: a reading stage R, an analyzing stage A, and an idle stage I^A, in
// that order. After warm-up the execution reaches a steady state where each
// stage has a stable duration; starred values (S*, W*, R*, A*) denote those
// steady-state durations and are the inputs of Eqs. (1)-(4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wfe::core {

/// The six fine-grained stages of Figure 6, plus the failure-semantics
/// stages of the resilience extension (docs/RESILIENCE.md). The extra kinds
/// are first-class trace citizens so effective makespan/efficiency under
/// faults fall out of the same Table 1 computations, while steady-state
/// extraction (which selects by kind) ignores them untouched.
enum class StageKind : std::uint8_t {
  kSimulate,    ///< S: the simulation computes
  kSimIdle,     ///< I^S: the simulation waits for readers to drain
  kWrite,       ///< W: the simulation stages data out
  kRead,        ///< R: an analysis fetches staged data
  kAnalyze,     ///< A: an analysis computes
  kAnaIdle,     ///< I^A: an analysis waits for the next chunk
  kFault,       ///< F: work killed by an injected fault (wasted partial stage)
  kBackoff,     ///< B: retry backoff / node-repair wait before a re-attempt
  kCheckpoint,  ///< C: the simulation persists a restart checkpoint
  kRestart,     ///< X: a member re-enters its state machine from a checkpoint
  kMigrate,     ///< M: a member re-homes onto surviving nodes after a death
};

const char* to_string(StageKind kind);

/// Steady-state durations of the simulation side of a member: S* and W*.
/// (I^S* is derived, not measured independently — Eq. (1) fixes it.)
struct SimSteady {
  double s = 0.0;  ///< S*: simulation compute time per in situ step
  double w = 0.0;  ///< W*: write/staging time per in situ step
};

/// Steady-state durations of one analysis coupling: R* and A*.
struct AnaSteady {
  double r = 0.0;  ///< R*: read time per in situ step
  double a = 0.0;  ///< A*: analysis compute time per in situ step
};

/// Steady-state stage profile of one ensemble member: a single simulation
/// coupled with K >= 1 analyses (the paper's (Sim, Ana^i) couplings).
struct MemberSteady {
  SimSteady sim;
  std::vector<AnaSteady> analyses;

  std::size_t coupling_count() const { return analyses.size(); }
};

}  // namespace wfe::core
