#include "sched/eval_key.hpp"

#include <string_view>

#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {

namespace {

void add_cost(Fnv1a& h, const md::MdCostParams& c) {
  h.add(c.instr_per_atom_step);
  h.add(c.base_ipc);
  h.add(c.llc_refs_per_instr);
  h.add(c.base_miss_ratio);
  h.add(c.bytes_per_atom);
  h.add(c.parallel_fraction);
  h.add(c.cache_sensitivity);
}

void add_cost(Fnv1a& h, const ana::AnalysisCostParams& c) {
  h.add(c.instr_per_element_sweep);
  h.add(c.power_iterations);
  h.add(c.subsample_stride);
  h.add(c.base_ipc);
  h.add(c.llc_refs_per_instr);
  h.add(c.base_miss_ratio);
  h.add(c.fixed_working_set_bytes);
  h.add(c.max_cache_footprint_bytes);
  h.add(c.parallel_fraction);
  h.add(c.cache_sensitivity);
}

/// Shapes and specs name their per-member demand fields alike.
template <typename Member>
std::uint64_t demand_of(const std::vector<Member>& members) {
  Fnv1a h;
  h.add(members.size());
  for (const Member& m : members) {
    h.add(m.buffer_capacity);
    h.add(m.sim.cores);
    h.add(m.sim.natoms);
    h.add(m.sim.stride);
    add_cost(h, m.sim.cost);
    h.add(m.analyses.size());
    for (const rt::AnalysisSpec& a : m.analyses) {
      h.add(a.cores);
      h.add(std::string_view(a.kernel));
      add_cost(h, a.cost);
    }
  }
  return h.digest();
}

}  // namespace

std::uint64_t model_digest() {
  static const std::uint64_t digest = [] {
    // Two paper-shaped members, three components co-located on node 0 and
    // one simulation alone on node 1: co-location interference, staging
    // and the interconnect all price into the canary's stages.
    const EnsembleShape shape = EnsembleShape::paper_like(2, 1, 6);
    const rt::EnsembleSpec spec = place(shape, {0, 0, 1, 0});
    rt::SimulatedOptions options;
    options.trace_obs = false;
    const rt::SimulatedExecutor exec(wl::cori_like_platform(), options);
    const rt::ExecutionResult result = exec.run(spec);
    Fnv1a h;
    h.add(result.events_processed);
    for (const met::StageRecord& r : result.trace.records()) {
      h.add(r.component.member);
      h.add(r.component.analysis);
      h.add(r.step);
      h.add(static_cast<int>(r.kind));
      h.add(r.start);
      h.add(r.end);
      h.add(r.counters.instructions);
      h.add(r.counters.cycles);
      h.add(r.counters.llc_references);
      h.add(r.counters.llc_misses);
    }
    const rt::Assessment a = rt::assess(spec, result);
    h.add(a.objective(core::IndicatorKind::kUAP));
    h.add(a.ensemble_makespan_measured);
    h.add(a.total_nodes);
    return h.digest();
  }();
  return digest;
}

std::uint64_t demand_digest(const EnsembleShape& shape) {
  return demand_of(shape.members);
}

std::uint64_t demand_digest(const rt::EnsembleSpec& spec) {
  return demand_of(spec.members);
}

std::uint64_t key_prefix(std::uint64_t platform_fp, std::uint64_t scenario_fp,
                         std::uint64_t probe_steps, std::uint64_t demand,
                         std::uint64_t model) {
  Fnv1a h;
  h.add(platform_fp);
  h.add(scenario_fp);
  h.add(probe_steps);
  h.add(demand);
  h.add(model);
  return h.digest();
}

std::uint64_t PlacementKeys::of(std::uint64_t prefix,
                                const Assignment& assignment) {
  Fnv1a h;
  h.add(prefix);
  for (const int node : assignment) {
    h.add(std::size_t{1});
    h.add(relabel_(node));
  }
  relabel_.reset();
  return h.digest();
}

std::uint64_t PlacementKeys::of(std::uint64_t prefix,
                                const rt::EnsembleSpec& spec) {
  Fnv1a h;
  h.add(prefix);
  const auto add_nodes = [&](const std::set<int>& nodes) {
    h.add(nodes.size());
    for (const int node : nodes) h.add(relabel_(node));
  };
  for (const rt::MemberSpec& m : spec.members) {
    add_nodes(m.sim.nodes);
    for (const rt::AnalysisSpec& a : m.analyses) add_nodes(a.nodes);
  }
  relabel_.reset();
  return h.digest();
}

std::uint64_t PlacementKeys::sample_identity(const EnsembleShape& shape,
                                             const Assignment& assignment,
                                             std::uint64_t probe_steps,
                                             std::uint64_t platform_fp,
                                             std::uint64_t scenario_fp) {
  WFE_REQUIRE(assignment.size() == slot_count(shape),
              "assignment must hold one node per component");
  Fnv1a h;
  h.add(platform_fp);
  h.add(scenario_fp);
  h.add(probe_steps);
  h.add(shape.members.size());
  std::size_t slot = 0;
  for (const MemberShape& m : shape.members) {
    h.add(m.buffer_capacity);
    h.add(m.sim.cores);
    h.add(m.sim.natoms);
    h.add(m.sim.stride);
    add_cost(h, m.sim.cost);
    h.add(std::size_t{1});
    h.add(relabel_(assignment[slot++]));
    h.add(m.analyses.size());
    for (const rt::AnalysisSpec& a : m.analyses) {
      h.add(a.cores);
      h.add(std::string_view(a.kernel));
      add_cost(h, a.cost);
      h.add(std::size_t{1});
      h.add(relabel_(assignment[slot++]));
    }
  }
  relabel_.reset();
  return h.digest();
}

}  // namespace wfe::sched
