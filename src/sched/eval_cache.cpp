#include "sched/eval_cache.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "support/error.hpp"
#include "support/str.hpp"

namespace wfe::sched {

namespace {

constexpr std::string_view kMagic = "wfens-eval-cache";
/// 2: keys carry the per-plan prefix and the model digest (eval_key.hpp).
constexpr int kVersion = 2;

/// Cursor over one line of a cache file; each read consumes one field and
/// the single space after it.
class FieldReader {
 public:
  explicit FieldReader(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  template <typename Int>
  bool integer(Int* out, int base) {
    const auto [ptr, ec] = std::from_chars(p_, end_, *out, base);
    return ec == std::errc{} && advance(ptr);
  }

  /// A printf("%a") field: sign, "0x" prefix, then what from_chars' hex
  /// format reads (which also covers inf and nan). Exact, like %a itself.
  bool hex_double(double* out) {
    const char* q = p_;
    const bool negative = q != end_ && *q == '-';
    if (negative) ++q;
    if (end_ - q >= 2 && q[0] == '0' && (q[1] == 'x' || q[1] == 'X')) q += 2;
    const auto [ptr, ec] = std::from_chars(q, end_, *out,
                                           std::chars_format::hex);
    if (ec != std::errc{}) return false;
    if (negative) *out = -*out;
    return advance(ptr);
  }

  bool at_end() const { return p_ == end_; }

 private:
  /// Field boundary: one space before the next field, or the line's end.
  bool advance(const char* ptr) {
    if (ptr != end_ && *ptr != ' ') return false;
    p_ = ptr == end_ ? ptr : ptr + 1;
    return true;
  }

  const char* p_;
  const char* end_;
};

/// "wfens-eval-cache <version>"; false for anything else.
bool parse_header(std::string_view header, int* version) {
  if (!header.starts_with(kMagic) ||
      header.substr(kMagic.size(), 1) != " ") {
    return false;
  }
  FieldReader rest(header.substr(kMagic.size() + 1));
  return rest.integer(version, 10) && rest.at_end();
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
  if (!parse_header(all.substr(0, header_end), &version) ||
      version > kVersion) {
    throw SerializationError(
        strprintf("%s: not a wfens-eval-cache v%d file", path.c_str(),
                  kVersion));
  }
  // An older format keyed entries differently: none of them can ever be
  // looked up again. Stale, not corrupt — the next save() replaces it.
  if (version < kVersion) return 0;

  std::vector<KeyTable<CachedEval>::Entry> parsed;
  std::size_t pos = header_end + 1;
  while (pos < all.size()) {
    const std::size_t eol = std::min(all.find('\n', pos), all.size());
    const std::string_view line = all.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    FieldReader fields(line);
    KeyTable<CachedEval>::Entry entry;
    Evaluation& eval = entry.value.eval;
    int feasible = 0;
    if (!fields.integer(&entry.key, 16) || !fields.integer(&feasible, 10) ||
        !fields.hex_double(&eval.objective) ||
        !fields.hex_double(&eval.ensemble_makespan) ||
        !fields.hex_double(&eval.min_member_efficiency) ||
        !fields.integer(&eval.nodes_used, 10) || !fields.at_end()) {
      throw SerializationError(strprintf("%s: malformed cache line: %s",
                                         path.c_str(),
                                         std::string(line).c_str()));
    }
    entry.value.feasible = feasible != 0;
    parsed.push_back(entry);
  }
  const support::RankGuard<Mutex> lock(mutex_);
  entries_.reserve(entries_.size() + parsed.size());
  for (const auto& [key, value] : parsed) entries_.insert_or_assign(key, value);
  return parsed.size();
}

std::size_t EvalCache::save(const std::string& path) const {
  std::vector<KeyTable<CachedEval>::Entry> sorted;
  {
    const support::RankGuard<Mutex> lock(mutex_);
    const auto entries = entries_.entries();
    sorted.assign(entries.begin(), entries.end());
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  std::string body = strprintf("%s %d\n", std::string(kMagic).c_str(),
                               kVersion);
  for (const auto& [key, entry] : sorted) {
    body += strprintf("%016" PRIx64 " %d %a %a %a %d\n", key,
                      entry.feasible ? 1 : 0, entry.eval.objective,
                      entry.eval.ensemble_makespan,
                      entry.eval.min_member_efficiency, entry.eval.nodes_used);
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw Error(strprintf("cannot write %s", tmp.c_str()));
    out << body;
    if (!out.flush()) {
      throw Error(strprintf("short write to %s", tmp.c_str()));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error(strprintf("cannot move %s into place", tmp.c_str()));
  }
  return sorted.size();
}

EvalCache& EvalCache::process() {
  static EvalCache instance;
  return instance;
}

}  // namespace wfe::sched
