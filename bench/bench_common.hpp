// Shared helpers for the benchmark binaries: run the paper configurations
// once and hand rows to table printers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe::bench {

struct ConfigRun {
  wl::NamedConfig config;
  rt::ExecutionResult result;
  rt::Assessment assessment;
};

/// Run every configuration of a set on the (given) platform.
inline std::vector<ConfigRun> run_set(
    const std::vector<wl::NamedConfig>& set,
    const plat::PlatformSpec& platform = wl::cori_like_platform()) {
  rt::SimulatedExecutor exec(platform);
  std::vector<ConfigRun> out;
  out.reserve(set.size());
  for (const auto& c : set) {
    rt::ExecutionResult result = exec.run(c.spec);
    rt::Assessment assessment = rt::assess(c.spec, result);
    out.push_back({c, std::move(result), std::move(assessment)});
  }
  return out;
}

/// Monotonic wall-clock stopwatch for throughput numbers.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable benchmark report: a flat, insertion-ordered JSON
/// object written next to the binary (BENCH_*.json) so perf regressions
/// can be diffed by scripts instead of by eyeballing tables. Values are
/// emitted verbatim; use the typed add() overloads to stay valid JSON.
class JsonReport {
 public:
  void add(const std::string& key, const std::string& value) {
    upsert(key, "\"" + value + "\"");
  }
  void add(const std::string& key, const char* value) {
    add(key, std::string(value));
  }
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    upsert(key, buf);
  }
  /// One integral overload (counts, thread counts, event totals): distinct
  /// overloads for uint64/size_t would collide on LP64 platforms.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  void add(const std::string& key, T value) {
    upsert(key, std::to_string(value));
  }
  /// Pre-rendered JSON value (an array or nested object) emitted verbatim
  /// under `key` — the caller is responsible for its validity. Used by
  /// bench_micro to attach its per-benchmark results array.
  void add_raw(const std::string& key, std::string json_value) {
    upsert(key, std::move(json_value));
  }

  std::string render() const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += "  \"" + entries_[i].first + "\": " + entries_[i].second;
      out += (i + 1 < entries_.size()) ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
  }

  /// Write to `path` and tell the user where the numbers went.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << render();
    std::cout << "\nWrote " << path << "\n";
  }

 private:
  /// Replace an existing key in place (keeping its position) or append.
  void upsert(const std::string& key, std::string rendered) {
    for (auto& entry : entries_) {
      if (entry.first == key) {
        entry.second = std::move(rendered);
        return;
      }
    }
    entries_.emplace_back(key, std::move(rendered));
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Print a header naming the paper artifact this binary regenerates.
inline void print_banner(const std::string& artifact,
                         const std::string& description) {
  std::cout << "==================================================\n"
            << "WFEns reproduction - " << artifact << "\n"
            << description << "\n"
            << "Platform: modelled Cori-like cluster (simulated mode)\n"
            << "==================================================\n\n";
}

}  // namespace wfe::bench
