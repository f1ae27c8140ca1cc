// Capacity planner: the §3.4 heuristic as a user-facing tool.
//
// "In most cases scientists have a rough estimate of the best settings for
//  their simulations, but not for the analyses." Given the simulation's
// settings (cores, stride, system size), sweep the analysis core count on
// the modelled platform and report, per candidate: the in situ step
// decomposition, Eq. (4) feasibility and the efficiency E — then recommend
// the allocation that minimizes the makespan and maximizes E.
//
// Usage:  ./capacity_planner [sim_cores] [stride] [natoms]
// A malformed or out-of-range number exits 2.
#include <cstdint>
#include <iostream>

#include "core/heuristic.hpp"
#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workload/presets.hpp"

int main(int argc, char** argv) {
  using namespace wfe;

  const auto platform = wl::cori_like_platform();
  int sim_cores = 16;
  int stride = 800;
  std::uint64_t natoms = 400'000;
  if ((argc > 1 && !parse_flag("sim_cores", argv[1], sim_cores, std::cerr, 1,
                               platform.node.cores)) ||
      (argc > 2 && !parse_flag("stride", argv[2], stride, std::cerr, 1)) ||
      (argc > 3 && !parse_flag("natoms", argv[3], natoms, std::cerr,
                               std::uint64_t{1}))) {
    return 2;
  }

  try {
    rt::SimulatedExecutor executor(platform);

    auto member_at = [&](int ana_cores) {
      rt::EnsembleSpec spec;
      spec.n_steps = 6;
      rt::MemberSpec m;
      m.sim = wl::gltph_like_simulation({0}, sim_cores);
      m.sim.stride = stride;
      m.sim.natoms = natoms;
      m.analyses.push_back(wl::bipartite_like_analysis({1}, ana_cores));
      spec.members.push_back(std::move(m));
      return rt::assess(spec, executor.run(spec)).members[0];
    };

    std::cout << "planning analysis allocation for: " << sim_cores
              << "-core simulation, stride " << stride << ", " << natoms
              << " atoms (co-location-free baseline)\n\n";

    const core::SimSteady sim_side = member_at(8).steady.sim;
    const auto result = core::provision_analysis_cores(
        sim_side, [&](int c) { return member_at(c).steady.analyses[0]; },
        platform.node.cores);

    Table table({"analysis cores", "R*+A* [s]", "sigma* [s]", "E",
                 "Eq. 4 feasible"});
    for (const auto& c : result.candidates) {
      if (c.cores > 8 && c.cores % 4 != 0) continue;
      table.add_row({strprintf("%d", c.cores),
                     fixed(c.analysis.r + c.analysis.a, 2), fixed(c.sigma, 2),
                     fixed(c.efficiency, 3), c.feasible ? "yes" : "no"});
    }
    std::cout << table.render();

    std::cout << "\nsimulation side S*+W* = "
              << fixed(sim_side.s + sim_side.w, 2) << " s\n"
              << "recommendation: " << result.cores << " cores per analysis ("
              << (result.any_feasible
                      ? "minimizes makespan, maximizes E among feasible"
                      : "no feasible allocation; best-effort minimum sigma*")
              << ")\n";
    return 0;
  } catch (const wfe::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
