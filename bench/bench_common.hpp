// Shared helpers for the benchmark binaries: run the paper configurations
// once and hand rows to table printers.
#pragma once

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
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
