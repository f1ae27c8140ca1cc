// wfens_run: execute a workflow-ensemble configuration on the modelled
// platform and save the execution trace as a WFET artifact for offline
// analysis (wfens_report).
//
// Usage:  wfens_run <config|spec.wfes> <out.wfet>
//                   [--native] [--steps N] [--save-spec out.wfes]
//                   [--schedule NAME] [--pool M] [--threads N]
//                   [--faults MTBF_S] [--stage-error-p P]
//                   [--fault-policy retry|checkpoint|fail] [--fault-seed N]
//   <config>         a paper configuration (Cf, Cc, C1.1 ... C2.8), or a
//                    path ending in .wfes holding a saved ensemble spec
//   --native         run the real threaded executor (small MD) instead of
//                    the simulated one (placements are ignored in native
//                    mode)
//   --steps N        override the in situ step count
//   --save-spec      also write the (possibly adjusted) spec, so
//                    wfens_report can compute the placement-aware
//                    indicators
//   --schedule NAME  discard the config's placement and re-plan it with the
//                    named scheduler (greedy-colocate, greedy-refine,
//                    exhaustive, bai-search, round-robin, random) before
//                    running; simulated mode only
//   --pool M         node budget for --schedule (default: the platform)
//   --threads N      worker threads for --schedule's candidate scoring;
//                    the chosen placement is identical for every N
//   --probe-jitter CV  price run-to-run noise (lognormal stage jitter with
//                    this CV) into --schedule's probe replays; the
//                    replay-guided schedulers then sample each candidate
//   --probe-samples N  seeded draws a fixed-budget scheduler averages per
//                    candidate on stochastic probes (default 1)
//   --max-samples N  bai-search's adaptive sample budget (0 = what the
//                    fixed-budget schedulers would spend)
//   --faults MTBF_S  inject node crashes with this per-node MTBF (seconds);
//                    simulated mode only
//   --stage-error-p  per-stage transient error probability (simulated mode)
//   --fault-policy   recovery policy when faults are on (default: retry)
//   --fault-seed N   fault-injection seed (independent of the jitter seed)
//   --node-down N@T  take node N down permanently at T virtual seconds
//                    (repeatable; deterministic, no randomness involved)
//   --fatal-crashes  make --faults crashes permanent: the first crash of a
//                    node kills it for good and forces a migration
//   --straggler M    per-node straggler windows with mean arrival M seconds
//                    (compute stretched while a window covers a node)
//   --net-degrade M  platform-wide network-degradation windows, mean
//                    arrival M seconds (transfers stretched inside windows)
//   --replication K  keep K copies of each staged chunk on a ring of nodes
//                    (K > 1 prices the extra pushes and saves chunks when
//                    the producer node dies)
//   --migrate MODE   node-death migration targeting: 'builtin' (least
//                    loaded surviving node) or 'replan' (online re-planner:
//                    probe-scored incremental repair); default builtin
//   --risk-aware     rank --schedule candidates by expected makespan under
//                    the --faults failure distribution instead of the
//                    fault-free objective
//   --spare N        hold N nodes of the --schedule pool back from
//                    placement as migration headroom
//   --trace-out F    also record a structured run trace (engine, DTL,
//                    scheduler, resilience activity) and write it to F:
//                    .jsonl = compact span log, anything else = Chrome
//                    trace_event JSON (chrome://tracing, Perfetto)
// A numeric flag with a malformed or out-of-range value exits 2.
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "metrics/trace_io.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/native_executor.hpp"
#include "runtime/simulated_executor.hpp"
#include "runtime/spec_io.hpp"
#include "sched/replanner.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

int main(int argc, char** argv) {
  using namespace wfe;
  if (argc < 3) {
    std::cerr << "usage: wfens_run <config|spec.wfes> <out.wfet> "
                 "[--native] [--steps N] [--save-spec out.wfes]\n"
                 "                 [--schedule NAME] [--pool M] [--threads N]\n"
                 "                 [--probe-jitter CV] [--probe-samples N] "
                 "[--max-samples N]\n"
                 "                 [--faults MTBF_S] [--stage-error-p P]\n"
                 "                 [--fault-policy retry|checkpoint|fail] "
                 "[--fault-seed N]\n"
                 "                 [--node-down N@T] [--fatal-crashes]\n"
                 "                 [--straggler MTBF_S] [--net-degrade "
                 "MTBF_S]\n"
                 "                 [--replication K] [--migrate "
                 "builtin|replan]\n"
                 "                 [--risk-aware] [--spare N]\n"
                 "                 [--trace-out trace.json|trace.jsonl]\n";
    return 2;
  }
  const std::string source = argv[1];
  const std::string out_path = argv[2];
  const auto platform = wl::cori_like_platform();
  bool native = false;
  std::uint64_t steps = 0;
  std::string save_spec_path;
  std::string schedule_name;
  int pool = 0;
  int threads = 1;
  double probe_jitter = 0.0;
  std::uint64_t probe_samples = 1;
  std::uint64_t max_samples = 0;
  res::FaultSpec faults;
  res::RecoveryPolicy recovery;
  std::string migrate_mode = "builtin";
  bool risk_aware = false;
  int spare_nodes = 0;
  std::string trace_out_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--native") {
      native = true;
    } else if (arg == "--steps" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], steps, std::cerr)) return 2;
    } else if (arg == "--save-spec" && i + 1 < argc) {
      save_spec_path = argv[++i];
    } else if (arg == "--schedule" && i + 1 < argc) {
      schedule_name = argv[++i];
    } else if (arg == "--pool" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], pool, std::cerr, 1,
                      platform.node_count)) {
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], threads, std::cerr, 1)) return 2;
    } else if (arg == "--probe-jitter" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], probe_jitter, std::cerr, 0.0)) return 2;
    } else if (arg == "--probe-samples" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], probe_samples, std::cerr, 1)) return 2;
    } else if (arg == "--max-samples" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], max_samples, std::cerr)) return 2;
    } else if (arg == "--faults" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], faults.node_mtbf_s, std::cerr, 0.0)) {
        return 2;
      }
    } else if (arg == "--stage-error-p" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], faults.stage_error_prob, std::cerr, 0.0,
                      1.0)) {
        return 2;
      }
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], faults.seed, std::cerr)) return 2;
    } else if (arg == "--node-down" && i + 1 < argc) {
      const std::string_view at = argv[++i];
      const std::size_t sep = at.find('@');
      if (sep == std::string_view::npos) {
        std::cerr << "--node-down wants NODE@TIME (e.g. 1@40)\n";
        return 2;
      }
      const auto node = parse_number<int>(at.substr(0, sep));
      const auto time_s = parse_number<double>(at.substr(sep + 1));
      if (!node || *node < 0 || *node >= platform.node_count || !time_s ||
          *time_s < 0.0) {
        std::cerr << "bad value for " << arg << ": '" << at << "'\n";
        return 2;
      }
      faults.node_down.push_back({*node, *time_s});
    } else if (arg == "--fatal-crashes") {
      faults.crashes_are_fatal = true;
    } else if (arg == "--straggler" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], faults.straggler_mtbf_s, std::cerr,
                      0.0)) {
        return 2;
      }
    } else if (arg == "--net-degrade" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], faults.net_degrade_mtbf_s, std::cerr,
                      0.0)) {
        return 2;
      }
    } else if (arg == "--replication" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], recovery.chunk_replication, std::cerr,
                      1)) {
        return 2;
      }
    } else if (arg == "--migrate" && i + 1 < argc) {
      migrate_mode = argv[++i];
      if (migrate_mode != "builtin" && migrate_mode != "replan") {
        std::cerr << "unknown migrate mode: " << migrate_mode
                  << " (want builtin|replan)\n";
        return 2;
      }
    } else if (arg == "--risk-aware") {
      risk_aware = true;
    } else if (arg == "--spare" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], spare_nodes, std::cerr, 0)) return 2;
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else if (arg == "--fault-policy" && i + 1 < argc) {
      const std::string policy = argv[++i];
      if (policy == "retry") {
        recovery.kind = res::RecoveryKind::kRetry;
      } else if (policy == "checkpoint") {
        recovery.kind = res::RecoveryKind::kCheckpointRestart;
      } else if (policy == "fail") {
        recovery.kind = res::RecoveryKind::kFailMember;
      } else {
        std::cerr << "unknown fault policy: " << policy
                  << " (want retry|checkpoint|fail)\n";
        return 2;
      }
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (native && faults.enabled()) {
    std::cerr << "--faults / --stage-error-p need the simulated executor "
                 "(drop --native)\n";
    return 2;
  }
  if (native && !schedule_name.empty()) {
    std::cerr << "--schedule plans placements, which native mode ignores "
                 "(drop --native)\n";
    return 2;
  }

  try {
    // Install the observability session before planning so scheduler
    // activity lands in the trace alongside the run itself.
    std::unique_ptr<obs::Recorder> obs_recorder;
    std::unique_ptr<obs::Session> obs_session;
    if (!trace_out_path.empty()) {
      obs_recorder = std::make_unique<obs::Recorder>();
      obs_session = std::make_unique<obs::Session>(*obs_recorder);
    }

    rt::EnsembleSpec spec;
    if (source.size() > 5 && source.substr(source.size() - 5) == ".wfes") {
      spec = rt::load_spec(source);
    } else {
      spec = wl::paper_config(source).spec;
    }
    if (steps > 0) spec.n_steps = steps;

    sched::PlanOptions plan_options;
    plan_options.threads = threads;
    plan_options.jitter_cv = probe_jitter;
    plan_options.probe_samples = probe_samples;
    plan_options.max_samples = max_samples;
    plan_options.faults = faults;
    plan_options.recovery = recovery;
    plan_options.risk_aware = risk_aware;
    plan_options.spare_nodes = spare_nodes;

    if (!schedule_name.empty()) {
      // Strip the config's placement down to its demand and re-plan it.
      const auto shape = sched::EnsembleShape::of(spec);
      const sched::ResourceBudget budget{pool > 0 ? pool
                                                  : platform.node_count};
      const sched::Schedule schedule =
          sched::make_scheduler(schedule_name)
              ->plan(shape, platform, budget, plan_options);
      const std::string name = spec.name;
      spec = schedule.spec;
      spec.name = name + "+" + schedule_name;
      std::cout << "re-planned " << name << " with " << schedule_name << " ("
                << schedule.evaluations << " planning replays";
      if (schedule.cache_hits > 0) {
        std::cout << ", " << schedule.cache_hits << " served from cache";
      }
      if (schedule.samples > 0) {
        std::cout << ", " << schedule.samples << " samples";
      }
      std::cout << ") on " << budget.node_pool << " nodes\n";
    }

    rt::ExecutionResult result;
    if (native) {
      // Swap in the really-runnable small MD workload.
      for (auto& m : spec.members) {
        m.sim.natoms = 256;
        m.sim.stride = 10;
        m.sim.cores = 1;
        m.sim.native = wl::native_md_config();
        for (auto& a : m.analyses) a.cores = 1;
      }
      if (steps == 0) spec.n_steps = 4;
      result = rt::NativeExecutor().run(spec);
    } else {
      rt::SimulatedOptions options;
      options.faults = faults;
      options.recovery = recovery;
      // The re-planner must outlive the executor holding its hook.
      std::unique_ptr<sched::RePlanner> replanner;
      if (migrate_mode == "replan" && faults.node_faults()) {
        replanner = std::make_unique<sched::RePlanner>(
            sched::EnsembleShape::of(spec), platform, plan_options);
        // The running assignment: one node per component in slot order
        // (multi-node components contribute their lowest node).
        sched::Assignment assignment;
        for (const auto& m : spec.members) {
          assignment.push_back(*m.sim.nodes.begin());
          for (const auto& a : m.analyses) {
            assignment.push_back(*a.nodes.begin());
          }
        }
        replanner->set_assignment(std::move(assignment));
        options.migrate = replanner->hook();
      }
      rt::SimulatedExecutor exec(platform, options);
      result = exec.run(spec);
      if (replanner && replanner->replans() > 0) {
        std::cout << "re-planner repaired " << replanner->replans()
                  << " placement(s) with " << replanner->evaluations()
                  << " probe replays (last re-plan took "
                  << replanner->last_latency_s() << " s)\n";
      }
    }

    met::save_trace(out_path, result.trace);
    std::cout << "wrote " << result.trace.size() << " stage records for "
              << spec.name << " to " << out_path << "\n";
    if (obs_recorder) {
      const obs::RunLog log = obs_recorder->take();
      obs::write_runlog(trace_out_path, log);
      std::cout << "wrote " << log.size() << " trace events on "
                << log.tracks().size() << " tracks to " << trace_out_path
                << "\n";
    }
    if (faults.enabled()) {
      std::cout << result.failure_summary.str() << "\n";
      if (!result.health_events.empty()) {
        int downs = 0;
        for (const auto& e : result.health_events) {
          if (e.to == plat::NodeHealth::kDown) ++downs;
        }
        std::cout << result.health_events.size()
                  << " node health transition(s), " << downs
                  << " node(s) went down\n";
      }
      if (!result.failure_summary.complete()) {
        std::cout << "note: " << result.failure_summary.failed_members.size()
                  << " member(s) did not finish; Table 1 / indicator "
                     "computations over this trace are partial\n";
      }
    }
    if (!save_spec_path.empty()) {
      rt::save_spec(save_spec_path, spec);
      std::cout << "wrote the spec to " << save_spec_path << "\n";
    }
    return 0;
  } catch (const wfe::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
