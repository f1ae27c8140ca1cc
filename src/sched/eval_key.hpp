// Evaluation keys: the 64-bit names under which BatchEvaluator's local memo
// and the shared EvalCache store a probe score.
//
// A key is hash(prefix, placement). The prefix is computed once per plan
// from everything the candidates of that plan share:
//
//   hash(platform fingerprint, probe scenario fingerprint, probe depth,
//        demand digest, model digest)
//
// The placement part is the canonical node list: per component, in place()'s
// slot order, the component's node count and its node ids relabeled onto
// their orbit representative under the evaluator's replay classes
// (candidates.hpp, node_classes()): within each class, in first-appearance
// order, onto the class's nodes ascending. Placements in one orbit replay
// identically, so they share one key. With one class over the platform
// this is plain first-appearance relabeling; when the probe tells nodes
// apart (straggler windows, several interconnect groups) every node is its
// own class and node ids are keyed as they are. A spec scored through
// score_specs() and the assignment that places the same demand the same way
// through score_assignments() produce the same stream, hence the same key:
// the two entry points share cache entries.
//
// The spec's name and step count are not part of a key — names only label
// placements, and probes override the step count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/spec.hpp"
#include "sched/candidates.hpp"
#include "sched/scheduler.hpp"

namespace wfe::sched {

/// Digest of the replay model compiled into this binary: the stage trace
/// and the assessed score of a fixed canary replay, computed once per
/// process on a private executor (no evaluator counter moves). A change to
/// the engine, the stage cost model or the indicator chain that moves the
/// canary's numbers moves every key, so persisted scores cannot outlive the
/// model that produced them.
std::uint64_t model_digest();

/// Digest of an ensemble's demand: per member, the buffer capacity, the
/// simulation's cores, atoms, stride and cost constants, and each analysis'
/// cores, kernel and cost constants. Node choices, names and step counts
/// are excluded, so a shape and every spec placing it digest equally.
std::uint64_t demand_digest(const EnsembleShape& shape);
std::uint64_t demand_digest(const rt::EnsembleSpec& spec);

/// The per-plan key prefix.
std::uint64_t key_prefix(std::uint64_t platform_fp, std::uint64_t scenario_fp,
                         std::uint64_t probe_steps, std::uint64_t demand,
                         std::uint64_t model);

/// Keys placements under a prefix. Node ids are relabeled onto their orbit
/// representative under `classes` through a table reused across calls, so
/// a key costs no allocation. Ids outside the classes all hash as one
/// sentinel label: every spec holding one fails validation, so they all
/// score alike.
class PlacementKeys {
 public:
  explicit PlacementKeys(NodeClasses classes) : relabel_(std::move(classes)) {}

  /// One node per slot, in place()'s slot order.
  std::uint64_t of(std::uint64_t prefix, const Assignment& assignment);
  /// The spec's own node sets, components in the same order.
  std::uint64_t of(std::uint64_t prefix, const rt::EnsembleSpec& spec);

  /// The identity seeded probe samples derive their replay seeds from
  /// (seed = Fnv1a::mix(identity, sample index)). Not a cache key: it is
  /// the evaluation key of cache format 1 — demand fields and node labels
  /// interleaved in one digest of place(shape, assignment) — kept bit for
  /// bit so that a seeded sample replays the same draw as before the
  /// re-key. It excludes the model digest by design.
  std::uint64_t sample_identity(const EnsembleShape& shape,
                                const Assignment& assignment,
                                std::uint64_t probe_steps,
                                std::uint64_t platform_fp,
                                std::uint64_t scenario_fp);

 private:
  Relabel relabel_;
};

}  // namespace wfe::sched
