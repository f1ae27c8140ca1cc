#include "wfens_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "wfens_lint/project.hpp"

namespace wfe::lint {

namespace detail {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

namespace {

/// Length of the raw-string prefix ending just before the quote at `i`:
/// `R`, `u8R`, `uR`, `UR` or `LR` preceded by a non-identifier character.
/// 0 when the quote does not open a raw string.
std::size_t raw_prefix_len(std::string_view s, std::size_t i) {
  if (i == 0 || s[i - 1] != 'R') return 0;
  std::size_t p = i - 1;  // the 'R'
  if (p >= 2 && s[p - 2] == 'u' && s[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 && (s[p - 1] == 'u' || s[p - 1] == 'U' || s[p - 1] == 'L')) {
    p -= 1;
  }
  if (p > 0 && is_ident_char(s[p - 1])) return 0;
  return i - p;
}

}  // namespace

std::string code_mask(std::string_view content) {
  std::string mask(content);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of the active raw string
  std::size_t i = 0;
  const std::size_t n = content.size();
  const auto blank = [&](std::size_t at) {
    if (mask[at] != '\n') mask[at] = ' ';
  };
  while (i < n) {
    const char c = content[i];
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          state = State::kLineComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '"' && raw_prefix_len(content, i) > 0) {
          // R"delim( ... )delim"
          std::size_t p = i + 1;
          while (p < n && content[p] != '(') ++p;
          raw_delim = ")";
          raw_delim.append(content.substr(i + 1, p - (i + 1)));
          raw_delim += '"';
          for (std::size_t k = i; k < std::min(p + 1, n); ++k) blank(k);
          i = p + 1;
          state = State::kRawString;
        } else if (c == '"') {
          blank(i);
          ++i;
          state = State::kString;
        } else if (c == '\'' && !(i > 0 && is_ident_char(content[i - 1]))) {
          // Exclude digit separators (1'000'000): a quote glued to an
          // identifier/number char is not a char literal opener.
          blank(i);
          ++i;
          state = State::kChar;
        } else {
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\\' && i + 1 < n &&
            (content[i + 1] == '\n' ||
             (content[i + 1] == '\r' && i + 2 < n && content[i + 2] == '\n'))) {
          // A line continuation extends the // comment onto the next
          // physical line (the preprocessor splices before tokenizing).
          // Blank the backslash (and a CR), step past the newline, and
          // stay in the comment.
          blank(i);
          blank(i + 1);
          i += content[i + 1] == '\r' ? 3 : 2;
        } else if (c == '\n') {
          state = State::kCode;
          ++i;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          blank(i);
          blank(i + 1);
          i += 2;
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char close = state == State::kString ? '"' : '\'';
        if (c == '\\' && i + 1 < n) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else {
          blank(i);
          ++i;
          if (c == close) state = State::kCode;
        }
        break;
      }
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) blank(i + k);
          i += raw_delim.size();
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
    }
  }
  return mask;
}

bool AllowMap::allows(std::string_view rule, int line) {
  bool hit = false;
  for (Entry& e : entries) {
    if (e.line == line && e.rule == rule) {
      e.used = true;
      hit = true;
    }
  }
  return hit;
}

AllowMap collect_allows(std::string_view content) {
  AllowMap out;
  static constexpr std::string_view kMarker = "wfens-lint: allow(";
  int line = 1;
  std::size_t line_start = 0;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    if (i == content.size() || content[i] == '\n') {
      const std::string_view text =
          content.substr(line_start, i - line_start);
      const std::size_t at = text.find(kMarker);
      if (at != std::string_view::npos) {
        const std::size_t open = at + kMarker.size();
        const std::size_t close = text.find(')', open);
        // The annotation must end its line: trailing text means the marker
        // is being *mentioned* (a doc comment quoting the syntax), not
        // written as an annotation.
        const bool terminal =
            close != std::string_view::npos &&
            text.find_first_not_of(" \t\r", close + 1) ==
                std::string_view::npos;
        if (terminal) {
          // The annotation covers its own line; when the comment stands
          // alone (only whitespace and the comment opener before it), it
          // covers the next line too.
          const std::string_view before = text.substr(0, text.find("//"));
          const bool standalone = before.find_first_not_of(" \t") ==
                                  std::string_view::npos;
          std::string rules(text.substr(open, close - open));
          std::stringstream ss(rules);
          std::string rule;
          while (std::getline(ss, rule, ',')) {
            const std::size_t b = rule.find_first_not_of(" \t");
            const std::size_t e = rule.find_last_not_of(" \t");
            if (b == std::string::npos) continue;
            rule = rule.substr(b, e - b + 1);
            out.entries.push_back({rule, line, line, false});
            if (standalone) out.entries.push_back({rule, line + 1, line, false});
          }
        }
      }
      line_start = i + 1;
      ++line;
    }
  }
  return out;
}

}  // namespace detail

namespace {

using detail::is_ident_char;
using detail::is_ident_start;

/// First non-space character at or after `i`, or '\0'.
char next_nonspace(std::string_view s, std::size_t i) {
  while (i < s.size()) {
    if (s[i] != ' ' && s[i] != '\t' && s[i] != '\n') return s[i];
    ++i;
  }
  return '\0';
}

/// Last non-space character before `i`, or '\0'.
char prev_nonspace(std::string_view s, std::size_t i) {
  while (i > 0) {
    --i;
    if (s[i] != ' ' && s[i] != '\t' && s[i] != '\n') return s[i];
  }
  return '\0';
}

/// True when the identifier ending just before `i` (skipping whitespace
/// and a `::`) is `qualifier` — i.e. the token at `i` is written
/// `qualifier::token`.
bool qualified_by(std::string_view s, std::size_t i,
                  std::string_view qualifier) {
  std::size_t p = i;
  while (p > 0 && (s[p - 1] == ' ' || s[p - 1] == '\t' || s[p - 1] == '\n'))
    --p;
  if (p < 2 || s[p - 1] != ':' || s[p - 2] != ':') return false;
  p -= 2;
  while (p > 0 && (s[p - 1] == ' ' || s[p - 1] == '\t' || s[p - 1] == '\n'))
    --p;
  const std::size_t end = p;
  while (p > 0 && is_ident_char(s[p - 1])) --p;
  return s.substr(p, end - p) == qualifier;
}

/// True when the mask position `i` sits on a preprocessor #include line.
bool on_include_line(std::string_view mask, std::size_t i) {
  std::size_t b = i;
  while (b > 0 && mask[b - 1] != '\n') --b;
  std::size_t p = b;
  while (p < mask.size() && (mask[p] == ' ' || mask[p] == '\t')) ++p;
  return mask.compare(p, 8, "#include") == 0;
}

/// Scope of a private-type row: every scanned file, or src/ only.
enum class Scope { kAllFiles, kSrcOnly };

/// One private type: identifiers only their owning modules may name.
/// `#include` lines are always exempt. In `message`, "{}" stands for the
/// identifier found.
struct PrivateType {
  std::string_view rule;
  std::string_view idents;  ///< space-separated
  std::string_view owners;  ///< space-separated path prefixes
  Scope scope;
  /// Report only constructions and declarations (`T{...}`, `T name`), so
  /// references, pointers and template arguments stay legal everywhere.
  bool construction_only;
  std::string_view message;
};

/// Module privacy in one table; a new private type costs one row.
///  * sim::Engine is the single event scheduler: ad-hoc queues would fork
///    its ordering semantics (seq tie-break, cancellation).
///  * ArmStats and the exploration log are best-arm search bookkeeping
///    whose confidence bounds hold only under src/sched/'s feeding
///    discipline (seed order, one thread, matching log).
///  * Only the executors (src/runtime/) and the trace reader (src/metrics/)
///    make stage records; everything else reads them from a met::Trace.
constexpr std::array<PrivateType, 3> kPrivateTypes{{
    {"event-queue-outside-simengine",
     "priority_queue push_heap pop_heap make_heap sort_heap", "src/simengine/",
     Scope::kAllFiles, false,
     "{}: ad-hoc event queues fragment the schedule semantics (seq "
     "tie-break, cancellation); schedule through sim::Engine instead"},
    {"arm-state-outside-sched", "ArmStats exploration_log", "src/sched/",
     Scope::kAllFiles, false,
     "{} is best-arm search internal state; outside src/sched/ plan through "
     "make_scheduler(\"bai-search\") instead of sampling arms directly"},
    {"stage-record-outside-runtime", "StageRecord",
     "src/runtime/ src/metrics/", Scope::kSrcOnly, true,
     "{} construction outside src/runtime/ and src/metrics/: only the "
     "executors and the trace reader make stage records; read them from a "
     "met::Trace instead"},
}};

/// Calls `fn` on each word of a space-separated list until it returns
/// true; returns whether any did.
template <typename Fn>
bool any_word(std::string_view list, Fn fn) {
  while (!list.empty()) {
    const std::size_t sp = list.find(' ');
    if (fn(list.substr(0, sp))) return true;
    if (sp == std::string_view::npos) break;
    list.remove_prefix(sp + 1);
  }
  return false;
}

/// The row that makes `ident` private, or null.
const PrivateType* private_type(std::string_view ident) {
  for (const PrivateType& type : kPrivateTypes) {
    if (any_word(type.idents,
                 [&](std::string_view word) { return word == ident; })) {
      return &type;
    }
  }
  return nullptr;
}

/// `path` with forward slashes, the form rule scopes are written in.
std::string with_slashes(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

struct RuleContext {
  std::string_view path;
  std::string_view slashed_path;  ///< `path` through with_slashes()
  std::string_view content;
  std::string_view mask;
  FileClass cls;
  detail::AllowMap* allows = nullptr;
  std::vector<Finding>* out = nullptr;

  void report(int line, std::string rule, std::string message) const {
    if (allows->allows(rule, line)) return;
    out->push_back(Finding{std::string(path), line, std::move(rule),
                           std::move(message)});
  }
};

/// Report `ident` (spanning [at, end) of the mask) when `type` makes it
/// private to modules other than this file's.
void check_private(const RuleContext& ctx, const PrivateType& type,
                   std::string_view ident, std::size_t at, std::size_t end,
                   int line) {
  if (type.scope == Scope::kSrcOnly && !ctx.cls.in_src) return;
  if (on_include_line(ctx.mask, at)) return;
  if (any_word(type.owners, [&](std::string_view owner) {
        return ctx.slashed_path.starts_with(owner);
      })) {
    return;
  }
  if (type.construction_only) {
    const char next = next_nonspace(ctx.mask, end);
    if (next != '{' && !is_ident_start(next)) return;
  }
  std::string message(type.message);
  if (const std::size_t hole = message.find("{}"); hole != std::string::npos) {
    message.replace(hole, 2, ident);
  }
  ctx.report(line, std::string(type.rule), std::move(message));
}

void scan_identifiers(const RuleContext& ctx) {
  const std::string_view s = ctx.mask;
  std::size_t i = 0;
  int line = 1;
  while (i < s.size()) {
    if (s[i] == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (!is_ident_start(s[i]) || (i > 0 && is_ident_char(s[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t e = i;
    while (e < s.size() && is_ident_char(s[e])) ++e;
    const std::string_view ident = s.substr(i, e - i);

    if ((ident == "rand" || ident == "srand") && next_nonspace(s, e) == '(') {
      ctx.report(line, "banned-ident",
                 std::string(ident) +
                     "() is nondeterministic; draw from support/rng instead");
    } else if (ident == "random_device") {
      ctx.report(line, "banned-ident",
                 "std::random_device is nondeterministic; seed from the "
                 "spec, not the host");
    } else if (ident == "system_clock" && !ctx.cls.in_support) {
      ctx.report(line, "banned-ident",
                 "system_clock is wall time; deterministic code uses "
                 "virtual time or steady_clock via support/");
    } else if (ident == "time" && next_nonspace(s, e) == '(') {
      const char prev = prev_nonspace(s, i);
      const bool member = prev == '.' || prev == '>';  // obj.time / ptr->time
      if (!member) {
        ctx.report(line, "banned-ident",
                   "time() reads the wall clock; deterministic code uses "
                   "virtual time");
      }
    } else if (ident == "function" && ctx.cls.in_simengine &&
               qualified_by(s, i, "std")) {
      ctx.report(line, "simengine-std-function",
                 "std::function heap-allocates per callback; the event core "
                 "uses SmallFn");
    } else if ((ident == "mutex" || ident == "recursive_mutex" ||
                ident == "timed_mutex" || ident == "recursive_timed_mutex" ||
                ident == "shared_mutex" || ident == "shared_timed_mutex" ||
                ident == "condition_variable" ||
                ident == "condition_variable_any") &&
               ctx.cls.in_src && !ctx.cls.in_support &&
               qualified_by(s, i, "std") && !on_include_line(s, i)) {
      ctx.report(line, "raw-mutex",
                 "std::" + std::string(ident) +
                     " bypasses the lock-rank checker; use RankedMutex / "
                     "RankCv from support/lock_rank.hpp");
    } else if ((ident == "unordered_map" || ident == "unordered_set") &&
               ctx.cls.exporter && !on_include_line(s, i)) {
      ctx.report(line, "unordered-iter",
                 std::string(ident) +
                     " in an exporter TU: hash-order iteration leaks into "
                     "golden traces (use std::map / a vector, or annotate a "
                     "lookup-only use)");
    } else if (const PrivateType* type = private_type(ident)) {
      check_private(ctx, *type, ident, i, e, line);
    }
    i = e;
  }
}

void scan_lines(const RuleContext& ctx) {
  const std::string_view s = ctx.mask;
  bool saw_pragma_once = false;
  int line = 1;
  std::size_t b = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i != s.size() && s[i] != '\n') continue;
    const std::string_view text = s.substr(b, i - b);
    std::size_t p = text.find_first_not_of(" \t");
    if (p != std::string_view::npos && text[p] == '#') {
      const std::string_view directive = text.substr(p);
      if (directive.find("pragma") != std::string_view::npos &&
          directive.find("once") != std::string_view::npos) {
        saw_pragma_once = true;
      }
      const std::size_t inc = directive.find("include");
      if (inc != std::string_view::npos) {
        // The include target survives in the ORIGINAL content (the mask
        // blanks quoted strings), so slice the same line from content.
        const std::string_view orig = ctx.content.substr(b, i - b);
        const std::size_t q = orig.find('"');
        if (q != std::string_view::npos &&
            orig.compare(q, 4, "\"../") == 0) {
          ctx.report(line, "include-parent",
                     "parent-relative include; include project headers by "
                     "their src/-rooted path");
        }
        if (ctx.cls.header &&
            orig.find("<iostream>") != std::string_view::npos) {
          ctx.report(line, "iostream-in-header",
                     "<iostream> in a header drags global stream "
                     "initializers into every TU; include it in the .cpp");
        }
      }
    }
    b = i + 1;
    ++line;
  }
  if (ctx.cls.header && !saw_pragma_once) {
    ctx.report(1, "pragma-once", "header is missing #pragma once");
  }
}

}  // namespace

FileClass classify_path(std::string_view relative_path) {
  FileClass cls;
  const std::string p = with_slashes(relative_path);
  cls.header = p.ends_with(".hpp");
  cls.in_src = p.starts_with("src/");
  cls.in_support = p.starts_with("src/support/");
  cls.in_simengine = p.starts_with("src/simengine/");
  cls.exporter = p.starts_with("src/obs/") ||
                 p.starts_with("src/metrics/trace_io.");
  return cls;
}

namespace detail {

std::vector<Finding> run_file_rules(std::string_view relative_path,
                                    std::string_view content,
                                    std::string_view mask, AllowMap& allows) {
  std::vector<Finding> out;
  const std::string slashed = with_slashes(relative_path);
  const RuleContext ctx{relative_path,          slashed, content, mask,
                        classify_path(slashed), &allows, &out};
  scan_identifiers(ctx);
  scan_lines(ctx);
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace detail

std::vector<Finding> lint_source(std::string_view relative_path,
                                 std::string_view content) {
  const std::string mask = detail::code_mask(content);
  detail::AllowMap allows = detail::collect_allows(content);
  return detail::run_file_rules(relative_path, content, mask, allows);
}

std::vector<Finding> lint_tree(const std::filesystem::path& repo_root) {
  // The whole-project analyzer (project.cpp) runs the single-file rules on
  // every file plus the cross-file passes; lint_tree is the canonical
  // entry the lint.tree ctest and the CLI share.
  Project project = load_project(repo_root);
  return analyze_project(project);
}

std::string findings_to_json(const std::vector<Finding>& findings) {
  const auto escape = [](std::string_view s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    return out;
  };
  std::string out = "[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"file\":\"" + escape(f.file) +
           "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"" +
           escape(f.rule) + "\",\"message\":\"" + escape(f.message) + "\"}";
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

std::string findings_to_sarif(const std::vector<Finding>& findings) {
  const auto escape = [](std::string_view s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  };

  // One reportingDescriptor per distinct rule, in first-seen order, so the
  // results' ruleIds all resolve.
  std::vector<std::string> rules;
  for (const Finding& f : findings) {
    if (std::find(rules.begin(), rules.end(), f.rule) == rules.end()) {
      rules.push_back(f.rule);
    }
  }

  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"wfens_lint\","
      " \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i) out += ", ";
    out += "{\"id\": \"" + escape(rules[i]) + "\"}";
  }
  out += "]}},\n    \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i) out += ",";
    out += "\n      {\"ruleId\": \"" + escape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           escape(f.file) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}]}";
  }
  out += findings.empty() ? "]\n" : "\n    ]\n";
  out += "  }]\n}\n";
  return out;
}

}  // namespace wfe::lint
