// EvalCache: a shared, optionally disk-persisted store of placement
// evaluations.
//
// BatchEvaluator's memo-cache deduplicates within one evaluator's
// lifetime. Campaign runs build many evaluators — one per figure/table
// unit — and re-score overlapping (platform, placement, demand) probes
// across units and across repeated campaign regenerations. EvalCache is
// the shared tier behind those local memos: keys are the same evaluation
// keys (per-plan prefix of platform, scenario, probe depth, demand and
// model digests, then the canonical placement; see eval_key.hpp), values
// are the Evaluation plus the feasibility verdict.
//
// Storage is a flat KeyTable (key_table.hpp). BatchEvaluator reads and
// writes it in bulk — one lock acquisition for a batch's lookups, one for
// its publishes — and load() checks a whole file before taking the lock
// once to merge it.
//
// Persistence is format 3: one text header line, "wfens-eval-cache 3
// <entries>\n", then <entries> fixed-width 40-byte little-endian records
// sorted by key: u64 key, f64 objective, f64 ensemble_makespan, f64
// min_member_efficiency, i32 nodes_used, u32 feasible (0 or 1). The
// records are the in-memory bytes, so a reloaded entry reproduces the
// in-memory score bit-for-bit by construction (-0.0, subnormals, inf
// included), load() decodes by memcpy, and the format is built only on a
// little-endian host (a static_assert). save() writes via tmp+rename so
// concurrent writers cannot tear the file, and repeated saves of equal
// content are byte-identical. A body whose size is not entries x 40, or a
// feasible field other than 0 or 1, is rejected whole. Invalidation is
// automatic: any change to the platform, the demand's cost constants, the
// probe depth or the replay model (the model digest) changes the key, so
// stale entries are simply never looked up again. A file of an older
// format version (the text formats 1 and 2) is stale as a whole: it loads
// as empty and the next save() overwrites it.
//
// Thread safety: all operations take one leaf-ranked mutex
// (support::kRankEvalCache); callers never hold it while simulating.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sched/evaluator.hpp"
#include "sched/key_table.hpp"
#include "support/lock_rank.hpp"

namespace wfe::sched {

/// One cached scoring outcome. `feasible == false` records that the
/// placement failed spec validation — remembering that is as valuable as
/// remembering a score, since validation also costs a replay slot.
struct CachedEval {
  bool feasible = false;
  Evaluation eval;
};

class EvalCache {
 public:
  EvalCache() = default;
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Look up every key under one lock acquisition: element i holds
  /// keys[i]'s entry, or nothing on a miss.
  std::vector<std::optional<CachedEval>> lookup(
      std::span<const std::uint64_t> keys) const;

  /// Insert (or overwrite) keys[i] -> values[i] for every i, under one lock
  /// acquisition.
  void insert(std::span<const std::uint64_t> keys,
              std::span<const CachedEval> values);

  std::size_t size() const;

  /// Merge entries from a cache file into memory. Returns the number of
  /// entries read; a missing file is an empty cache, and so is a file of
  /// an older format version (stale, returns 0). Throws
  /// wfe::SerializationError on a foreign, newer-version, torn or
  /// malformed file, merging nothing.
  std::size_t load(const std::string& path);

  /// Write every entry to `path` (sorted by key, tmp+rename). Returns the
  /// number of entries written. Throws wfe::Error when unwritable.
  std::size_t save(const std::string& path) const;

 private:
  using Mutex = support::RankedMutex<support::kRankEvalCache>;

  mutable Mutex mutex_;
  KeyTable<CachedEval> entries_;  // insertion order; save() sorts a copy
};

}  // namespace wfe::sched
