// KeyTable: a flat open-addressing map from 64-bit evaluation keys to
// values — the storage behind both evaluation-cache tiers (the shared
// EvalCache and BatchEvaluator's local memo) and the evaluator's in-flight
// dedup of a batch.
//
// Entries live densely in insertion order; an index of 32-bit slots
// (linear probing, load factor at most 1/2) maps a key to its entry. There
// is no per-entry heap node: 72k cached scores are ~3.5 MB of entries plus
// a 1 MB index, a lookup touches two cache lines, and a bulk load is one
// growing vector. Iteration order is insertion order, so callers that need
// a canonical order (EvalCache::save) sort a copy.
//
// Not thread-safe; EvalCache wraps it in its mutex.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wfe::sched {

template <typename V>
class KeyTable {
 public:
  struct Entry {
    std::uint64_t key = 0;
    V value{};
  };

  const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const std::uint32_t s = slots_[slot_of(key)];
    return s == 0 ? nullptr : &entries_[s - 1].value;
  }

  /// Insert, or overwrite the value already stored under `key`.
  void insert_or_assign(std::uint64_t key, const V& value) {
    if (V* stored = insert(key, value)) *stored = value;
  }

  /// Insert unless `key` is present; an existing value is kept.
  void try_insert(std::uint64_t key, const V& value) { (void)insert(key, value); }

  /// Size the index for `n` entries so that many inserts never rehash.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (2 * n > slots_.size()) rehash(std::bit_ceil(2 * n));
  }

  std::size_t size() const { return entries_.size(); }
  std::span<const Entry> entries() const { return entries_; }

 private:
  /// Inserts a new entry and returns nullptr, or returns the value already
  /// stored under `key`.
  V* insert(std::uint64_t key, const V& value) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      rehash(slots_.empty() ? 16 : 2 * slots_.size());
    }
    std::uint32_t& s = slots_[slot_of(key)];
    if (s != 0) return &entries_[s - 1].value;
    entries_.push_back({key, value});
    s = static_cast<std::uint32_t>(entries_.size());
    return nullptr;
  }

  /// The slot holding `key`, or the empty slot where it belongs.
  std::size_t slot_of(std::uint64_t key) const {
    std::size_t s = mix(key) & mask_;
    while (slots_[s] != 0 && entries_[slots_[s] - 1].key != key) {
      s = (s + 1) & mask_;
    }
    return s;
  }

  void rehash(std::size_t capacity) {
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t s = mix(entries_[i].key) & mask_;
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<std::uint32_t>(i + 1);
    }
  }

  /// Keys are FNV-1a digests, whose low bits mix poorly; the index uses a
  /// finalized copy (MurmurHash3's fmix64).
  static std::uint64_t mix(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;  // 0 = empty, else entry index + 1
  std::size_t mask_ = 0;
};

}  // namespace wfe::sched
