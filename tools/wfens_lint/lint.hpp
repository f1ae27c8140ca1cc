// wfens_lint — the project's in-tree invariant scanner.
//
// WFEns' headline correctness claims (bit-identical replay, zero observer
// effect, deterministic pick_winner) are properties of the *source*, not of
// any one test run: a single stray rand() or an iteration over an
// unordered_map in an exporter breaks them silently on the next platform.
// This scanner mechanically enforces the invariants over src/ and tools/,
// runs as a ctest (lint.tree) and as a CLI, and emits a machine-readable
// findings report for CI.
//
// Rule catalogue (ids are what allow() annotations name; details in
// docs/ANALYSIS.md):
//
//   banned-ident          rand/srand/random_device calls anywhere, time()
//                         calls anywhere, std::chrono system_clock outside
//                         src/support/. Deterministic code must draw time
//                         and entropy from the engine or support/rng.
//   simengine-std-function
//                         std::function inside src/simengine/ — the event
//                         core uses SmallFn; std::function reintroduces
//                         per-callback heap traffic on the hot path.
//   unordered-iter        any unordered_map/unordered_set use in an
//                         exporter/trace-emitting TU (src/obs/,
//                         src/metrics/trace_io.*): hash-order iteration
//                         leaks into golden traces. #include lines are
//                         exempt; lookup-only maps carry an allow().
//   raw-mutex             std::mutex / std::condition_variable (and their
//                         timed/recursive/shared variants) in src/ outside
//                         src/support/ — concurrency primitives go through
//                         support/lock_rank.hpp's RankedMutex/RankCv so
//                         the lock-rank checker sees every acquisition.
//                         #include lines are exempt.
//   pragma-once           every header opens with #pragma once.
//   include-parent        no #include "../..." — includes are rooted at
//                         src/ so self-containment checks and tooling see
//                         one canonical path per header.
//   iostream-in-header    headers must not include <iostream> (global
//                         stream objects drag static initializers into
//                         every TU; stream in .cpp files only).
//   stale-allow            an `// wfens-lint: allow(rule)` annotation that
//                         suppresses no finding (whole-project runs only:
//                         the cross-file passes must see every use first).
//   private types         one table in lint.cpp (kPrivateTypes), one rule
//                         id per row: identifiers that only their owning
//                         modules may name. #include lines are exempt.
//                         event-queue-outside-simengine: std::priority_queue
//                         and the raw heap algorithms outside
//                         src/simengine/ (sim::Engine is the one event
//                         scheduler). arm-state-outside-sched: ArmStats /
//                         exploration_log outside src/sched/.
//                         stage-record-outside-runtime: StageRecord
//                         construction or declaration in src/ outside
//                         src/runtime/ and src/metrics/ (only the executors
//                         and the trace reader make stage records; reads
//                         through a met::Trace stay legal).
//
// Whole-project passes (wfens_lint --root; built on the project model in
// project.hpp, documented in docs/ANALYSIS.md):
//
//   layer-*               layering manifest conformance: every cross-module
//                         #include edge must be declared in
//                         tools/wfens_lint/layers.conf (layer-undeclared-edge),
//                         every declared edge must be used (layer-stale-edge),
//                         the observed module graph must be acyclic
//                         (layer-cycle), every file must map to a declared
//                         module (layer-unknown-module), and the manifest
//                         itself must parse (layer-manifest).
//   lock-rank-static      a call path that can acquire a RankedMutex rank
//                         <= a rank already held — the runtime abort in
//                         src/support/lock_rank.hpp, found at lint time
//                         with both source sites (see ranks.hpp).
//   determinism-taint     a src/ function (outside src/support/) that
//                         reaches rand/time/system_clock/random_device
//                         through a chain of project calls (see taint.hpp).
//
// Escape hatch: a comment `// wfens-lint: allow(rule-id)` (comma-separated
// for several rules) suppresses findings of those rules on its own line,
// or — when the comment stands alone on a line — on the following line.
// The annotation must end its line; text after the closing paren (as in
// this very paragraph) makes it a mention, not an annotation.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace wfe::lint {

struct Finding {
  std::string file;  ///< path as passed in (repo-relative for lint_tree)
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// What a path is, for rule scoping. Derived from the repo-relative path
/// with forward slashes (e.g. "src/obs/export.cpp").
struct FileClass {
  bool header = false;        ///< *.hpp
  bool in_src = false;        ///< under src/
  bool in_support = false;    ///< under src/support/
  bool in_simengine = false;  ///< under src/simengine/
  bool exporter = false;      ///< trace-emitting TU set (src/obs/,
                              ///< src/metrics/trace_io.*)
};

FileClass classify_path(std::string_view relative_path);

/// Lint one source text. `relative_path` scopes the rules and labels the
/// findings; findings come back in line order.
std::vector<Finding> lint_source(std::string_view relative_path,
                                 std::string_view content);

/// Lint every *.hpp / *.cpp under `repo_root`/src and `repo_root`/tools,
/// in sorted path order, then run the whole-project passes (layering
/// manifest, static lock rank, determinism taint, stale allows). Throws
/// wfe::lint errors as std::runtime_error on unreadable files.
std::vector<Finding> lint_tree(const std::filesystem::path& repo_root);

/// The findings as a JSON array (stable field order, sorted input order
/// preserved) for CI consumption.
std::string findings_to_json(const std::vector<Finding>& findings);

/// The findings as a SARIF 2.1.0 log (one run, one result per finding)
/// for inline PR annotations in CI.
std::string findings_to_sarif(const std::vector<Finding>& findings);

namespace detail {

/// Replace comment, string-literal and char-literal bytes with spaces
/// (newlines kept) so rule matching only ever sees code. Handles //, block
/// comments (including line continuations that extend a // comment),
/// escapes, adjacent literals, and (u8|u|U|L-prefixed)
/// R"delim(...)delim" raw strings.
std::string code_mask(std::string_view content);

/// Per-line allow() annotations harvested from comments. An annotation
/// covers its own line, plus the next line when the comment stands alone.
/// allows() records which entries actually suppressed something so
/// whole-project runs can flag the rest as stale-allow.
struct AllowMap {
  struct Entry {
    std::string rule;
    int line = 0;             ///< a 1-based line this annotation covers
    int annotation_line = 0;  ///< the comment's own line
    bool used = false;        ///< suppressed at least one finding
  };
  std::vector<Entry> entries;

  /// True when `rule` is suppressed on `line`; marks the entry used.
  bool allows(std::string_view rule, int line);
};
AllowMap collect_allows(std::string_view content);

/// Run the single-file rules (everything except the whole-project passes)
/// with caller-owned mask/allow state, so the project analyzer can share
/// one AllowMap per file across every pass.
std::vector<Finding> run_file_rules(std::string_view relative_path,
                                    std::string_view content,
                                    std::string_view mask, AllowMap& allows);

}  // namespace detail

}  // namespace wfe::lint
