// Extension — node-level fault domains: provisioning against node death.
//
// The paper's provisioning study assumes nodes stay up; at Cori scale they
// do not. This experiment sweeps per-node MTBF (as a fraction of the
// fault-free makespan) x chunk replication factor x spare-node headroom
// over a three-member ensemble whose platform has one node with scheduled
// downtime mid-campaign (node 0, the kind of planned maintenance a batch
// system advertises). Every cell plans the placement twice — fault-
// obliviously and risk-aware (--risk-aware) — then executes both under
// injection with online re-planning. The oblivious planner places
// canonically, i.e. straight onto the doomed node, and pays a guaranteed
// migration; the risk-aware planner maps the same canonical placement off
// it and charges candidates that cannot avoid it. Reported per cell: the
// analytic expected makespan of each placement under the failure
// distribution, the realized makespan of the injected run, and the
// recovery work (migrations, re-plans, chunks lost). The headline check
// (ctest bench.node_faults): at one or more MTBF points the risk-aware
// placement must beat the fault-oblivious one on expected makespan, or
// the binary exits 1.
#include "bench_common.hpp"

#include <algorithm>
#include <string>

#include "metrics/traditional.hpp"
#include "resilience/fault_spec.hpp"
#include "sched/evaluator.hpp"
#include "sched/replanner.hpp"
#include "sched/risk.hpp"
#include "sched/scheduler.hpp"

namespace {

using namespace wfe;

struct PlannedRun {
  double expected_makespan = 0.0;  ///< analytic, under the risk model
  double realized_makespan = 0.0;  ///< injected run, post-recovery
  int nodes_used = 0;
  std::uint64_t migrations = 0;
  std::uint64_t replans = 0;
  std::uint64_t chunks_lost = 0;
  bool complete = true;
};

PlannedRun plan_and_run(const sched::EnsembleShape& shape,
                        const plat::PlatformSpec& platform,
                        const sched::ResourceBudget& budget,
                        const sched::PlanOptions& plan_options,
                        const rt::SimulatedOptions& run_options) {
  const sched::Schedule schedule =
      sched::make_scheduler("exhaustive")
          ->plan(shape, platform, budget, plan_options);

  // Analytic expectation of the chosen placement (always under the active
  // risk model, so oblivious and risk-aware placements are comparable).
  sched::PlanOptions risk_on = plan_options;
  risk_on.risk_aware = true;
  const sched::RiskModel risk = sched::RiskModel::of(risk_on, shape.n_steps);
  const sched::Evaluator prober(platform,
                                sched::probe_scenario(plan_options));
  const sched::Evaluation eval =
      prober.score(schedule.spec, plan_options.probe_steps);

  sched::Assignment placement;
  for (const auto& m : schedule.spec.members) {
    placement.push_back(*m.sim.nodes.begin());
    for (const auto& a : m.analyses) placement.push_back(*a.nodes.begin());
  }

  PlannedRun out;
  out.nodes_used = eval.nodes_used;
  out.expected_makespan = risk.expected_makespan(
      eval.ensemble_makespan, plan_options.probe_steps, eval.nodes_used,
      sched::doomed_used_of(risk, placement));

  // Injected execution with the online re-planner wired in.
  rt::SimulatedOptions options = run_options;
  sched::RePlanner replanner(shape, platform, plan_options);
  replanner.set_assignment(placement);
  options.migrate = replanner.hook();
  rt::SimulatedExecutor exec(platform, options);
  const rt::ExecutionResult r = exec.run(schedule.spec);
  for (const met::StageRecord& rec : r.trace.records()) {
    out.realized_makespan = std::max(out.realized_makespan, rec.end);
  }
  out.migrations = r.failure_summary.migrations;
  out.replans = replanner.replans();
  out.chunks_lost = r.failure_summary.chunks_lost;
  out.complete = r.failure_summary.complete();
  return out;
}

}  // namespace

int main() {
  using namespace wfe;
  bench::print_banner(
      "Extension: node fault domains (MTBF x replication x spares)",
      "Fatal node crashes with online re-planning. Each cell plans the\n"
      "same demand fault-obliviously and risk-aware, then executes both\n"
      "under injection; 'expected' is the analytic makespan under the\n"
      "failure distribution, 'realized' the injected run's.");

  const auto platform = wl::cori_like_platform();
  const auto shape = sched::EnsembleShape::paper_like(3, 1, 16);
  const sched::ResourceBudget budget{6};

  // Fault-free reference makespan sets the MTBF scale.
  sched::PlanOptions clean_options;
  clean_options.threads = 2;
  const sched::Schedule clean = sched::make_scheduler("exhaustive")
                                    ->plan(shape, platform, budget,
                                           clean_options);
  rt::SimulatedExecutor clean_exec(platform);
  const rt::ExecutionResult clean_run = clean_exec.run(clean.spec);
  double base_makespan = 0.0;
  for (const met::StageRecord& rec : clean_run.trace.records()) {
    base_makespan = std::max(base_makespan, rec.end);
  }
  std::cout << "Fault-free makespan: " << strprintf("%.1f s", base_makespan)
            << "\n\n";

  const std::vector<double> mtbf_fracs = {8.0, 2.0, 0.5, 0.25, 0.125};
  const std::vector<int> replications = {1, 2};
  const std::vector<int> spares = {0, 1};

  Table table({"MTBF/makespan", "repl", "spare", "planner", "nodes",
               "expected [s]", "realized [s]", "migr", "replans",
               "chunks lost", "done"});
  int cells = 0;
  int risk_wins = 0;
  double best_gain_pct = 0.0;

  for (const double frac : mtbf_fracs) {
    const double mtbf = frac * base_makespan;
    for (const int repl : replications) {
      for (const int spare : spares) {
        sched::PlanOptions plan_options;
        plan_options.threads = 2;
        plan_options.faults = wl::fatal_node_crashes(mtbf);
        // Scheduled maintenance: node 0 goes down for good mid-campaign.
        plan_options.faults.node_down.push_back(
            {0, 0.35 * base_makespan});
        plan_options.recovery.kind = res::RecoveryKind::kCheckpointRestart;
        plan_options.recovery.checkpoint_period = 3;
        plan_options.recovery.chunk_replication = repl;
        plan_options.spare_nodes = spare;

        rt::SimulatedOptions run_options;
        run_options.faults = plan_options.faults;
        run_options.recovery = plan_options.recovery;

        PlannedRun results[2];
        for (const bool risk_aware : {false, true}) {
          sched::PlanOptions o = plan_options;
          o.risk_aware = risk_aware;
          results[risk_aware ? 1 : 0] =
              plan_and_run(shape, platform, budget, o, run_options);
        }
        const PlannedRun& obl = results[0];
        const PlannedRun& risk = results[1];
        ++cells;
        if (risk.expected_makespan < obl.expected_makespan) {
          ++risk_wins;
          best_gain_pct = std::max(
              best_gain_pct, 100.0 * (obl.expected_makespan -
                                      risk.expected_makespan) /
                                 obl.expected_makespan);
        }
        for (const bool risk_aware : {false, true}) {
          const PlannedRun& r = results[risk_aware ? 1 : 0];
          table.add_row(
              {strprintf("%.2f", frac), strprintf("%d", repl),
               strprintf("%d", spare),
               risk_aware ? "risk-aware" : "oblivious",
               strprintf("%d", r.nodes_used),
               strprintf("%.1f", r.expected_makespan),
               strprintf("%.1f", r.realized_makespan),
               strprintf("%llu",
                         static_cast<unsigned long long>(r.migrations)),
               strprintf("%llu",
                         static_cast<unsigned long long>(r.replans)),
               strprintf("%llu",
                         static_cast<unsigned long long>(r.chunks_lost)),
               r.complete ? "yes" : "no"});
        }
      }
    }
  }
  std::cout << table.render();
  std::cout << "\nRisk-aware placements beat fault-oblivious ones on "
               "expected makespan in "
            << risk_wins << "/" << cells << " cells (best gain "
            << strprintf("%.1f%%", best_gain_pct) << ").\n";

  if (risk_wins == 0) {
    std::cerr << "FAIL: risk-aware placement never beat fault-oblivious "
                 "placement on expected makespan\n";
    return 1;
  }
  return 0;
}
