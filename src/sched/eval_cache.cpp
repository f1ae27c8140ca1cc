#include "sched/eval_cache.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <type_traits>

#include "support/error.hpp"
#include "support/str.hpp"

static_assert(std::endian::native == std::endian::little,
              "the eval-cache record format assumes a little-endian host");

namespace wfe::sched {

namespace {

constexpr std::string_view kMagic = "wfens-eval-cache";
/// 2: keys carry the per-plan prefix and the model digest (eval_key.hpp).
/// 3: fixed-width binary records after the header line.
constexpr int kVersion = 3;

/// One entry on disk, exactly as it sits in memory: 40 bytes, no padding.
struct Record {
  std::uint64_t key;
  double objective;
  double ensemble_makespan;
  double min_member_efficiency;
  std::int32_t nodes_used;
  std::uint32_t feasible;  ///< 0 or 1
};
static_assert(sizeof(Record) == 40 && std::is_trivially_copyable_v<Record>);
static_assert(offsetof(Record, nodes_used) == 32 &&
              offsetof(Record, feasible) == 36);
static_assert(sizeof(Evaluation::nodes_used) == sizeof(std::int32_t));

/// Cursor over the header line; each read consumes one field and the
/// single space after it.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  template <typename Int>
  bool integer(Int* out) {
    const auto [ptr, ec] = std::from_chars(p_, end_, *out);
    if (ec != std::errc{} || (ptr != end_ && *ptr != ' ')) return false;
    p_ = ptr == end_ ? ptr : ptr + 1;
    return true;
  }

  bool at_end() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

/// "wfens-eval-cache <version> <entries>", where older versions have no
/// entry count; false for anything else.
bool parse_header(std::string_view header, int* version,
                  std::uint64_t* entries) {
  if (!header.starts_with(kMagic) ||
      header.substr(kMagic.size(), 1) != " ") {
    return false;
  }
  FieldReader rest(header.substr(kMagic.size() + 1));
  if (!rest.integer(version)) return false;
  if (rest.at_end()) return *version < kVersion;
  return rest.integer(entries) && rest.at_end();
}

std::string read_file(std::ifstream& in) {
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::string text(static_cast<std::size_t>(std::max<std::streamoff>(size, 0)),
                   '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace

std::vector<std::optional<CachedEval>> EvalCache::lookup(
    std::span<const std::uint64_t> keys) const {
  std::vector<std::optional<CachedEval>> out(keys.size());
  const support::RankGuard<Mutex> lock(mutex_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (const CachedEval* found = entries_.find(keys[i])) {
      out[i] = *found;
    }
  }
  return out;
}

void EvalCache::insert(std::span<const std::uint64_t> keys,
                       std::span<const CachedEval> values) {
  WFE_REQUIRE(keys.size() == values.size(), "one value per key required");
  const support::RankGuard<Mutex> lock(mutex_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    entries_.insert_or_assign(keys[i], values[i]);
  }
}

std::size_t EvalCache::size() const {
  const support::RankGuard<Mutex> lock(mutex_);
  return entries_.size();
}

std::size_t EvalCache::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;  // no cache yet: cold start, not an error
  const std::string text = read_file(in);
  const std::string_view all(text);

  const std::size_t header_end = std::min(all.find('\n'), all.size());
  int version = 0;
  std::uint64_t count = 0;
  if (!parse_header(all.substr(0, header_end), &version, &count) ||
      version > kVersion) {
    throw SerializationError(
        strprintf("%s: not a wfens-eval-cache v%d file", path.c_str(),
                  kVersion));
  }
  // An older format keyed entries differently: none of them can ever be
  // looked up again. Stale, not corrupt — the next save() replaces it.
  if (version < kVersion) return 0;

  const std::string_view body =
      all.substr(std::min(header_end + 1, all.size()));
  if (header_end == all.size() || body.size() % sizeof(Record) != 0 ||
      body.size() / sizeof(Record) != count) {
    throw SerializationError(strprintf(
        "%s: torn file: header promises %llu entries, body holds %zu bytes",
        path.c_str(), static_cast<unsigned long long>(count), body.size()));
  }
  const auto record = [&body](std::size_t i) {
    Record r{};
    std::memcpy(&r, body.data() + i * sizeof(Record), sizeof(Record));
    return r;
  };
  for (std::size_t i = 0; i < count; ++i) {
    if (const Record r = record(i); r.feasible > 1) {
      throw SerializationError(
          strprintf("%s: entry %016llx has feasible = %u", path.c_str(),
                    static_cast<unsigned long long>(r.key), r.feasible));
    }
  }
  const support::RankGuard<Mutex> lock(mutex_);
  entries_.reserve(entries_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    const Record r = record(i);
    entries_.insert_or_assign(
        r.key, {r.feasible == 1,
                {r.objective, r.ensemble_makespan, r.min_member_efficiency,
                 r.nodes_used}});
  }
  return count;
}

std::size_t EvalCache::save(const std::string& path) const {
  std::vector<Record> records;
  {
    const support::RankGuard<Mutex> lock(mutex_);
    records.reserve(entries_.size());
    for (const auto& [key, entry] : entries_.entries()) {
      records.push_back({key, entry.eval.objective,
                         entry.eval.ensemble_makespan,
                         entry.eval.min_member_efficiency,
                         entry.eval.nodes_used, entry.feasible ? 1u : 0u});
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  // One buffer: the text header line, then the records as they sit in
  // memory (sorted, padding-free, so equal content gives equal bytes).
  std::string file = strprintf("%s %d %zu\n", std::string(kMagic).c_str(),
                               kVersion, records.size());
  const std::size_t header_size = file.size();
  file.resize(header_size + records.size() * sizeof(Record));
  if (!records.empty()) {
    std::memcpy(file.data() + header_size, records.data(),
                records.size() * sizeof(Record));
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error(strprintf("cannot write %s", tmp.c_str()));
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!out.flush()) {
      throw Error(strprintf("short write to %s", tmp.c_str()));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error(strprintf("cannot move %s into place", tmp.c_str()));
  }
  return records.size();
}

}  // namespace wfe::sched
