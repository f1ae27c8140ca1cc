// EvalCache: the process-wide, disk-persistable evaluation store behind
// BatchEvaluator's local memo (the campaign driver's cross-unit and
// cross-run dedup tier).
#include "sched/eval_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wfens_eval_cache_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

using EvalCacheFiles = TempDir;

CachedEval sample(double objective) {
  CachedEval e;
  e.feasible = true;
  e.eval.objective = objective;
  e.eval.ensemble_makespan = objective * 2.0 + 0.125;
  e.eval.min_member_efficiency = 0.7310585786300049;  // full-mantissa value
  e.eval.nodes_used = 3;
  return e;
}

/// One format-3 record: u64 key, f64 objective, f64 makespan, f64 min
/// efficiency, i32 nodes_used, u32 feasible, little-endian, 40 bytes.
std::string record(std::uint64_t key, double objective,
                   std::uint32_t feasible = 1) {
  const double makespan = objective * 2.0;
  const double efficiency = 0.5;
  const std::int32_t nodes = 2;
  std::string bytes(40, '\0');
  std::memcpy(&bytes[0], &key, 8);
  std::memcpy(&bytes[8], &objective, 8);
  std::memcpy(&bytes[16], &makespan, 8);
  std::memcpy(&bytes[24], &efficiency, 8);
  std::memcpy(&bytes[32], &nodes, 4);
  std::memcpy(&bytes[36], &feasible, 4);
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

// One-key forms of the span API.
void put(EvalCache& cache, std::uint64_t key, const CachedEval& value) {
  cache.insert(std::span<const std::uint64_t>(&key, 1),
               std::span<const CachedEval>(&value, 1));
}

std::optional<CachedEval> get(const EvalCache& cache, std::uint64_t key) {
  return cache.lookup(std::span<const std::uint64_t>(&key, 1)).front();
}

TEST(EvalCache, LookupMissesOnEmptyAndHitsAfterInsert) {
  EvalCache cache;
  EXPECT_FALSE(get(cache, 42));
  put(cache, 42, sample(1.5));
  const std::optional<CachedEval> out = get(cache, 42);
  ASSERT_TRUE(out);
  EXPECT_TRUE(out->feasible);
  EXPECT_EQ(out->eval.objective, 1.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, InsertOverwrites) {
  EvalCache cache;
  put(cache, 7, sample(1.0));
  put(cache, 7, sample(2.0));
  const std::optional<CachedEval> out = get(cache, 7);
  ASSERT_TRUE(out);
  EXPECT_EQ(out->eval.objective, 2.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(EvalCacheFiles, SaveLoadRoundTripsBitExactly) {
  EvalCache cache;
  put(cache, 0x1234, sample(0.1));  // 0.1: not exactly representable
  CachedEval infeasible;
  infeasible.feasible = false;
  put(cache, 0xffffffffffffffffull, infeasible);
  EXPECT_EQ(cache.save(path("c")), 2u);

  EvalCache loaded;
  EXPECT_EQ(loaded.load(path("c")), 2u);
  EXPECT_EQ(loaded.size(), 2u);
  const std::optional<CachedEval> out = get(loaded, 0x1234);
  ASSERT_TRUE(out);
  EXPECT_TRUE(out->feasible);
  // Bit-exact doubles: the binary records must not lose mantissa bits.
  EXPECT_EQ(out->eval.objective, 0.1);
  EXPECT_EQ(out->eval.ensemble_makespan, 0.1 * 2.0 + 0.125);
  EXPECT_EQ(out->eval.min_member_efficiency, 0.7310585786300049);
  EXPECT_EQ(out->eval.nodes_used, 3);
  const std::optional<CachedEval> infeasible_out =
      get(loaded, 0xffffffffffffffffull);
  ASSERT_TRUE(infeasible_out);
  EXPECT_FALSE(infeasible_out->feasible);
}

TEST_F(EvalCacheFiles, SavedBytesAreDeterministic) {
  // Same entries inserted in different orders must serialize identically
  // (sorted by key): campaign runs diff cache files across machines.
  EvalCache a;
  put(a, 3, sample(0.3));
  put(a, 1, sample(0.1));
  put(a, 2, sample(0.2));
  EvalCache b;
  put(b, 2, sample(0.2));
  put(b, 3, sample(0.3));
  put(b, 1, sample(0.1));
  a.save(path("a"));
  b.save(path("b"));
  std::ifstream fa(path("a")), fb(path("b"));
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ba, bb);
  EXPECT_FALSE(ba.empty());
}

TEST_F(EvalCacheFiles, LoadMergesIntoExistingEntries) {
  EvalCache first;
  put(first, 1, sample(0.1));
  first.save(path("c"));
  EvalCache second;
  put(second, 2, sample(0.2));
  EXPECT_EQ(second.load(path("c")), 1u);
  EXPECT_EQ(second.size(), 2u);
  EXPECT_TRUE(get(second, 1));
  EXPECT_TRUE(get(second, 2));
}

TEST_F(EvalCacheFiles, MissingFileLoadsAsEmpty) {
  EvalCache cache;
  EXPECT_EQ(cache.load(path("nonexistent")), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EvalCacheFiles, LoadsAHandWrittenFormat3File) {
  write_file(path("c"), "wfens-eval-cache 3 2\n" + record(1, 0.25) +
                            record(2, 0.5, /*feasible=*/0));
  EvalCache cache;
  EXPECT_EQ(cache.load(path("c")), 2u);
  const std::optional<CachedEval> one = get(cache, 1);
  ASSERT_TRUE(one);
  EXPECT_TRUE(one->feasible);
  EXPECT_EQ(one->eval.objective, 0.25);
  EXPECT_EQ(one->eval.ensemble_makespan, 0.5);
  EXPECT_EQ(one->eval.min_member_efficiency, 0.5);
  EXPECT_EQ(one->eval.nodes_used, 2);
  const std::optional<CachedEval> two = get(cache, 2);
  ASSERT_TRUE(two);
  EXPECT_FALSE(two->feasible);
}

TEST_F(EvalCacheFiles, RejectsForeignAndMalformedFiles) {
  write_file(path("foreign"), "not-a-cache 1\n");
  // A body that is not a whole number of 40-byte records.
  write_file(path("torn"),
             "wfens-eval-cache 3 1\n" + record(0xdeadbeef, 1.0).substr(0, 12));
  // A format this build cannot read.
  write_file(path("newer"), "wfens-eval-cache 4 1\n" + record(1, 1.0));
  write_file(path("no_count"), "wfens-eval-cache 3\n");
  EvalCache cache;
  EXPECT_THROW(cache.load(path("foreign")), SerializationError);
  EXPECT_THROW(cache.load(path("torn")), SerializationError);
  EXPECT_THROW(cache.load(path("newer")), SerializationError);
  EXPECT_THROW(cache.load(path("no_count")), SerializationError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EvalCacheFiles, TornFileMergesNothing) {
  // One whole record, then a second cut short.
  write_file(path("torn"), "wfens-eval-cache 3 2\n" + record(1, 1.0) +
                               record(2, 1.0).substr(0, 24));
  EvalCache cache;
  EXPECT_THROW(cache.load(path("torn")), SerializationError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EvalCacheFiles, EntryCountMustMatchTheBody) {
  // Whole records, but not as many as the header promises, either way.
  write_file(path("short"),
             "wfens-eval-cache 3 3\n" + record(1, 1.0) + record(2, 2.0));
  write_file(path("long"),
             "wfens-eval-cache 3 1\n" + record(1, 1.0) + record(2, 2.0));
  EvalCache cache;
  EXPECT_THROW(cache.load(path("short")), SerializationError);
  EXPECT_THROW(cache.load(path("long")), SerializationError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EvalCacheFiles, FeasibleFieldIsZeroOrOne) {
  write_file(path("c"), "wfens-eval-cache 3 2\n" + record(1, 1.0) +
                            record(2, 2.0, /*feasible=*/2));
  EvalCache cache;
  EXPECT_THROW(cache.load(path("c")), SerializationError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EvalCacheFiles, OlderVersionIsStaleNotCorrupt) {
  // Text files of formats 1 (keys without the model digest) and 2 (hex
  // floats, one entry per line): each loads as empty instead of throwing,
  // and the next save replaces it with the current format.
  const std::string older[] = {
      "wfens-eval-cache 1\n"
      "00000000000004d2 1 0x1.999999999999ap-4 0x1.5p+1 0x1p-1 3\n",
      "wfens-eval-cache 2\n"
      "00000000000004d2 1 0x1.999999999999ap-4 0x1.5p+1 0x1p-1 3\n"};
  for (const std::string& text : older) {
    write_file(path("old"), text);
    EvalCache cache;
    EXPECT_EQ(cache.load(path("old")), 0u);
    EXPECT_EQ(cache.size(), 0u);
    put(cache, 1, sample(0.5));
    EXPECT_EQ(cache.save(path("old")), 1u);
    EvalCache reloaded;
    EXPECT_EQ(reloaded.load(path("old")), 1u);
    std::ifstream in(path("old"));
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "wfens-eval-cache 3 1");
  }
}

TEST_F(EvalCacheFiles, SavedFileIsTheHeaderThenFortyBytesPerEntry) {
  EvalCache cache;
  put(cache, 2, sample(0.2));
  put(cache, 1, sample(0.1));
  cache.save(path("c"));
  const std::string bytes = read_bytes(path("c"));
  const std::string header = "wfens-eval-cache 3 2\n";
  ASSERT_EQ(bytes.size(), header.size() + 2 * 40);
  EXPECT_EQ(bytes.substr(0, header.size()), header);
  std::uint64_t first_key = 0;
  std::memcpy(&first_key, bytes.data() + header.size(), 8);
  EXPECT_EQ(first_key, 1u);  // sorted by key
}

TEST_F(EvalCacheFiles, SpecialValuesRoundTripBitExactly) {
  const double values[] = {-0.0, -1.5, 1e-310, -1e300, HUGE_VAL, -HUGE_VAL};
  EvalCache cache;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    CachedEval e = sample(values[i]);
    e.eval.nodes_used = -static_cast<int>(i);
    put(cache, i, e);
  }
  cache.save(path("c"));
  EvalCache loaded;
  ASSERT_EQ(loaded.load(path("c")), std::size(values));
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::optional<CachedEval> out = get(loaded, i);
    ASSERT_TRUE(out);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out->eval.objective),
              std::bit_cast<std::uint64_t>(values[i]))
        << i;
    EXPECT_EQ(out->eval.nodes_used, -static_cast<int>(i));
  }
}

TEST(EvalCache, BatchLookupAndInsertMatchSingleCalls) {
  EvalCache cache;
  const std::vector<std::uint64_t> keys = {5, 9, 5};
  const std::vector<CachedEval> values = {sample(0.5), sample(0.9),
                                          sample(0.25)};
  cache.insert(keys, values);
  EXPECT_EQ(cache.size(), 2u);  // the later 5 overwrote the earlier one
  const std::vector<std::uint64_t> probe = {9, 4, 5};
  const auto found = cache.lookup(probe);
  ASSERT_EQ(found.size(), 3u);
  ASSERT_TRUE(found[0].has_value());
  EXPECT_EQ(found[0]->eval.objective, 0.9);
  EXPECT_FALSE(found[1].has_value());
  ASSERT_TRUE(found[2].has_value());
  EXPECT_EQ(found[2]->eval.objective, 0.25);
  // A later single-key insert overwrites what a batch put there.
  put(cache, 9, sample(0.75));
  EXPECT_EQ(get(cache, 9)->eval.objective, 0.75);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EvalCache, ManyKeysSurviveTableGrowth) {
  EvalCache cache;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    put(cache, k * 0x9e3779b97f4a7c15ULL, sample(static_cast<double>(k)));
  }
  EXPECT_EQ(cache.size(), 5000u);
  for (std::uint64_t k = 0; k < 5000; ++k) {
    const std::optional<CachedEval> out =
        get(cache, k * 0x9e3779b97f4a7c15ULL);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->eval.objective, static_cast<double>(k));
  }
  EXPECT_FALSE(get(cache, 1));
}

TEST_F(EvalCacheFiles, SaveLeavesNoTempFileBehind) {
  EvalCache cache;
  put(cache, 1, sample(0.5));
  cache.save(path("c"));
  EXPECT_TRUE(std::filesystem::exists(path("c")));
  EXPECT_FALSE(std::filesystem::exists(path("c") + ".tmp"));
}

TEST(EvalCache, ConcurrentInsertLookupIsSafe) {
  // The store is shared across scoring threads in a campaign; hammer it
  // from several writers+readers (TSan covers this via the concurrency
  // label).
  EvalCache cache;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const auto key = static_cast<std::uint64_t>(t * 1000 + i);
        put(cache, key, sample(static_cast<double>(i)));
        (void)get(cache, key);
        (void)get(cache, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), 2000u);
}

// ------------------------------------------------- BatchEvaluator two-tier

TEST(EvalCacheBatch, WarmSharedCacheSkipsAllSimulations) {
  const auto platform = wl::cori_like_platform();
  const auto shape = EnsembleShape::paper_like(2, 1);
  const auto assignments = enumerate_assignments(slot_count(shape), 3);

  EvalCache shared;
  BatchEvaluator cold(platform, /*threads=*/2);
  cold.attach_shared_cache(&shared);
  const auto first = cold.score_assignments(shape, assignments);
  EXPECT_GT(cold.evaluations(), 0u);
  // Every unique miss is published, including infeasible placements
  // (cached without a simulation), so the store is at least as big as the
  // simulation count.
  EXPECT_GE(shared.size(), cold.evaluations());

  // A fresh evaluator with the warm store must not simulate anything.
  BatchEvaluator warm(platform, /*threads=*/2);
  warm.attach_shared_cache(&shared);
  const auto second = warm.score_assignments(shape, assignments);
  EXPECT_EQ(warm.evaluations(), 0u);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].feasible, first[i].feasible);
    EXPECT_EQ(second[i].eval.objective, first[i].eval.objective) << i;
    EXPECT_TRUE(second[i].cached);
  }
}

TEST(EvalCacheBatch, AttachmentDoesNotChangeScores) {
  const auto platform = wl::cori_like_platform();
  const auto shape = EnsembleShape::paper_like(2, 1);
  const auto assignments = enumerate_assignments(slot_count(shape), 3);

  BatchEvaluator plain(platform, /*threads=*/2);
  const auto reference = plain.score_assignments(shape, assignments);

  EvalCache shared;
  BatchEvaluator attached(platform, /*threads=*/2);
  attached.attach_shared_cache(&shared);
  const auto scored = attached.score_assignments(shape, assignments);
  ASSERT_EQ(scored.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(scored[i].feasible, reference[i].feasible);
    EXPECT_EQ(scored[i].eval.objective, reference[i].eval.objective) << i;
  }
}

TEST_F(EvalCacheFiles, PersistedCacheWarmsAFreshProcessStandIn) {
  // Simulate a second campaign run: score, save, "restart" (new cache +
  // new evaluator), load, score again — zero fresh simulations.
  const auto platform = wl::cori_like_platform();
  const auto shape = EnsembleShape::paper_like(1, 1);
  const auto assignments = enumerate_assignments(slot_count(shape), 3);

  {
    EvalCache shared;
    BatchEvaluator run1(platform, /*threads=*/1);
    run1.attach_shared_cache(&shared);
    (void)run1.score_assignments(shape, assignments);
    EXPECT_GT(shared.size(), 0u);
    shared.save(path("c"));
  }
  {
    EvalCache shared;
    EXPECT_GT(shared.load(path("c")), 0u);
    BatchEvaluator run2(platform, /*threads=*/1);
    run2.attach_shared_cache(&shared);
    (void)run2.score_assignments(shape, assignments);
    EXPECT_EQ(run2.evaluations(), 0u) << "disk-warmed cache must serve all";
  }
}

}  // namespace
}  // namespace wfe::sched
