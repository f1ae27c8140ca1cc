// wfens_plan: plan a placement for a paper-shaped ensemble demand and
// report the expected assessment — the paper's future-work scheduling use
// case as a command-line tool.
//
// Usage:  wfens_plan <members> <analyses_per_member> <node_pool>
//                    [--scheduler greedy-colocate|greedy-refine|exhaustive|
//                                 bai-search|round-robin|random]
//                    [--threads N] [--probe-jitter CV] [--probe-samples N]
//                    [--max-samples N] [--json] [--save-spec out.wfes]
//                    [--trace-out trace.json|trace.jsonl]
//
// --threads parallelizes the replay-driven schedulers' candidate scoring;
// the chosen placement is identical for every N (see docs/PERF.md).
// --probe-jitter prices run-to-run noise into the probe replays; --probe-samples
// sets the fixed-budget schedulers' draws per candidate and --max-samples
// caps bai-search's adaptive budget (0 = the fixed-budget spend).
// --json replaces the human-readable report with one machine-readable
// JSON object including the scheduler cost counters (planning replays,
// memo hits, shared-cache hits, samples) — "replays saved" per plan. It
// holds no wall-clock number, so identical commands print identical bytes.
// --trace-out records scheduler activity (batch spans, per-worker
// utilization, memo hits) as a structured run trace: .jsonl = compact span
// log, anything else = Chrome trace_event JSON.
// A malformed or out-of-range number, positional or flag, exits 2.
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/spec_io.hpp"
#include "sched/evaluator.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workload/presets.hpp"

int main(int argc, char** argv) {
  using namespace wfe;
  if (argc < 4) {
    std::cerr << "usage: wfens_plan <members> <analyses_per_member> "
                 "<node_pool> [--scheduler NAME] [--threads N] "
                 "[--probe-jitter CV] [--probe-samples N] [--max-samples N] "
                 "[--json] [--save-spec out.wfes] [--trace-out trace.json]\n";
    return 2;
  }
  const auto platform = wl::cori_like_platform();
  int members = 0;
  int analyses = 0;
  int pool = 0;
  if (!parse_flag("members", argv[1], members, std::cerr, 1) ||
      !parse_flag("analyses_per_member", argv[2], analyses, std::cerr, 1) ||
      !parse_flag("node_pool", argv[3], pool, std::cerr, 1,
                  platform.node_count)) {
    return 2;
  }
  std::string scheduler_name = "greedy-colocate";
  std::string save_spec_path;
  std::string trace_out_path;
  bool json_out = false;
  sched::PlanOptions plan_options;
  for (int i = 4; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scheduler" && i + 1 < argc) {
      scheduler_name = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], plan_options.threads, std::cerr, 1)) {
        return 2;
      }
    } else if (arg == "--probe-jitter" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], plan_options.jitter_cv, std::cerr,
                      0.0)) {
        return 2;
      }
    } else if (arg == "--probe-samples" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], plan_options.probe_samples, std::cerr,
                      1)) {
        return 2;
      }
    } else if (arg == "--max-samples" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], plan_options.max_samples, std::cerr)) {
        return 2;
      }
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--save-spec" && i + 1 < argc) {
      save_spec_path = argv[++i];
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out_path = argv[++i];
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  try {
    // --json also records a session: the scheduler cost counters
    // (sched.evaluations / memo_hits / shared_hits) land in the report.
    std::unique_ptr<obs::Recorder> obs_recorder;
    std::unique_ptr<obs::Session> obs_session;
    if (!trace_out_path.empty() || json_out) {
      obs_recorder = std::make_unique<obs::Recorder>();
      obs_session = std::make_unique<obs::Session>(*obs_recorder);
    }

    const auto shape = sched::EnsembleShape::paper_like(members, analyses);
    const auto scheduler = sched::make_scheduler(scheduler_name);
    const sched::Schedule schedule =
        scheduler->plan(shape, platform, {pool}, plan_options);

    sched::Evaluator evaluator(platform);
    const sched::Evaluation e = evaluator.score(schedule.spec);

    if (json_out) {
      std::ostringstream out;
      out << "{\n";
      out << "  \"scheduler\": \"" << json::escape(schedule.scheduler)
          << "\",\n";
      out << "  \"members\": " << members << ",\n";
      out << "  \"analyses_per_member\": " << analyses << ",\n";
      out << "  \"node_pool\": " << pool << ",\n";
      out << "  \"threads\": " << plan_options.threads << ",\n";
      out << "  \"jitter_cv\": " << plan_options.jitter_cv << ",\n";
      out << "  \"probe_samples\": " << plan_options.probe_samples << ",\n";
      out << "  \"max_samples\": " << plan_options.max_samples << ",\n";
      out << "  \"evaluations\": " << schedule.evaluations << ",\n";
      out << "  \"cache_hits\": " << schedule.cache_hits << ",\n";
      out << "  \"shared_hits\": " << schedule.shared_hits << ",\n";
      out << "  \"samples\": " << schedule.samples << ",\n";
      out << "  \"objective\": " << sci(e.objective, 9) << ",\n";
      out << "  \"nodes_used\": " << e.nodes_used << ",\n";
      out << "  \"min_member_efficiency\": "
          << fixed(e.min_member_efficiency, 6) << ",\n";
      out << "  \"placement\": [";
      bool first = true;
      for (const auto& m : schedule.spec.members) {
        if (!first) out << ", ";
        first = false;
        out << "{\"sim\": " << *m.sim.nodes.begin() << ", \"analyses\": [";
        bool afirst = true;
        for (const auto& a : m.analyses) {
          if (!afirst) out << ", ";
          afirst = false;
          out << *a.nodes.begin();
        }
        out << "]}";
      }
      out << "],\n";
      // Only the deterministic search counters: the wall-clock ones
      // (seconds, named *_s, e.g. sched.w0.busy_s) differ from run to run
      // and stay in --trace-out, so reruns print identical bytes.
      out << "  \"counters\": {";
      first = true;
      for (const obs::CounterValue& c :
           obs_recorder->counters().snapshot()) {
        if (c.name.ends_with("_s")) continue;
        if (!first) out << ", ";
        first = false;
        out << "\"" << json::escape(c.name) << "\": " << c.value;
      }
      out << "}\n";
      out << "}\n";
      std::cout << out.str();
    } else {
      Table placement({"member", "simulation", "analyses"});
      for (std::size_t i = 0; i < schedule.spec.members.size(); ++i) {
        const auto& m = schedule.spec.members[i];
        std::vector<std::string> ana_nodes;
        for (const auto& a : m.analyses) {
          ana_nodes.push_back("n" + std::to_string(*a.nodes.begin()));
        }
        placement.add_row({strprintf("EM%zu", i + 1),
                           "n" + std::to_string(*m.sim.nodes.begin()),
                           join(ana_nodes, " ")});
      }
      std::cout << "scheduler: " << schedule.scheduler << " ("
                << schedule.evaluations << " planning replays";
      if (schedule.cache_hits > 0) {
        std::cout << ", " << schedule.cache_hits << " served from cache";
      }
      if (schedule.shared_hits > 0) {
        std::cout << " (" << schedule.shared_hits << " shared)";
      }
      if (schedule.samples > 0) {
        std::cout << ", " << schedule.samples << " samples";
      }
      std::cout << ")\n" << placement.render();
      std::cout << "\nexpected F(P^{U,A,P}) = " << sci(e.objective, 3)
                << ", nodes used = " << e.nodes_used
                << ", min member E = " << fixed(e.min_member_efficiency, 3)
                << "\n";
    }

    if (!save_spec_path.empty()) {
      rt::save_spec(save_spec_path, schedule.spec);
      if (!json_out) {
        std::cout << "wrote the spec to " << save_spec_path << "\n";
      }
    }
    if (obs_recorder && !trace_out_path.empty()) {
      const obs::RunLog log = obs_recorder->take();
      obs::write_runlog(trace_out_path, log);
      if (!json_out) {
        std::cout << "wrote " << log.size() << " trace events on "
                  << log.tracks().size() << " tracks to " << trace_out_path
                  << "\n";
      }
    }
    return 0;
  } catch (const wfe::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
