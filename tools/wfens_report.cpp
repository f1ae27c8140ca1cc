// wfens_report: offline assessment of a WFET trace artifact.
//
// Prints the Table 1 traditional metrics, the steady-state stage profile,
// the non-overlapped in situ step sigma* (Eq. 1) and the computational
// efficiency E (Eq. 3) for every member found in the trace — everything
// the paper derives that does not require the placement. With
// --spec <file.wfes> (saved by `wfens_run --save-spec`) the placement is
// known too, so the full indicator chain (Eqs. 5-8) and the ensemble
// objective F (Eq. 9) are reported as well.
//
// Usage:  wfens_report <trace.wfet|trace.jsonl> [--csv] [--spec spec.wfes]
//                      [--timeline] [--width N]
//
// --timeline renders an ASCII Gantt chart of the execution instead of the
// metric tables. It accepts either trace source: a WFET stage trace (one
// track per component, stage mnemonics as glyphs) or an obs .jsonl span
// log saved by `wfens_run --trace-out` (tracks as recorded, including
// engine/scheduler/DTL activity). --width sets the plot width in columns.
#include <iostream>
#include <string>

#include "core/efficiency.hpp"
#include "core/insitu.hpp"
#include "metrics/steady_state.hpp"
#include "metrics/trace_io.hpp"
#include "metrics/traditional.hpp"
#include "obs/export.hpp"
#include "obs/timeline.hpp"
#include "runtime/bridge.hpp"
#include "runtime/spec_io.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Adapt a WFET stage trace to the Gantt timeline: one track per component
/// in component order, labels = stage mnemonics (S, W, R, A, IS, IA, ...).
wfe::obs::Timeline timeline_from_trace(const wfe::met::Trace& trace) {
  wfe::obs::Timeline timeline;
  for (const wfe::met::ComponentId& id : trace.components()) {
    for (const wfe::met::StageRecord& r : trace.for_component(id)) {
      timeline.add(id.str(), wfe::met::stage_mnemonic(r.kind), r.start,
                   r.end);
    }
  }
  return timeline;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfe;
  if (argc < 2) {
    std::cerr << "usage: wfens_report <trace.wfet|trace.jsonl> [--csv] "
                 "[--spec spec.wfes] [--timeline] [--width N]\n";
    return 2;
  }
  bool csv = false;
  bool timeline = false;
  int width = 72;
  std::string spec_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--width" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], width, std::cerr, 8)) return 2;
    } else if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  const std::string trace_path = argv[1];

  try {
    if (ends_with(trace_path, ".jsonl")) {
      // An obs span log supports only the timeline view.
      if (!timeline) {
        std::cerr << "a .jsonl span log needs --timeline (metric tables "
                     "require a .wfet stage trace)\n";
        return 2;
      }
      const obs::RunLog log = obs::read_runlog_jsonl(trace_path);
      std::cout << obs::render_gantt(obs::timeline_from_runlog(log), width);
      return 0;
    }

    const met::Trace trace = met::load_trace(trace_path);
    if (timeline) {
      std::cout << obs::render_gantt(timeline_from_trace(trace), width);
      return 0;
    }
    if (csv) {
      std::cout << met::trace_to_csv(trace);
      return 0;
    }

    std::cout << "trace: " << trace.size() << " stage records, "
              << trace.members().size() << " members\n\n";

    Table components({"component", "exec time", "LLC miss ratio",
                      "memory intensity", "IPC"});
    for (const auto& m : met::all_component_metrics(trace)) {
      components.add_row({m.component.str(), human_seconds(m.execution_time),
                          fixed(m.llc_miss_ratio, 4),
                          sci(m.memory_intensity, 2), fixed(m.ipc, 3)});
    }
    std::cout << "Table 1 component metrics:\n" << components.render();

    Table members({"member", "S*", "W*", "R*^j", "A*^j", "sigma*", "E",
                   "makespan"});
    for (std::uint32_t member : trace.members()) {
      const core::MemberSteady steady =
          met::member_steady_state(trace, member);
      std::vector<std::string> rs, as;
      for (const auto& a : steady.analyses) {
        rs.push_back(human_seconds(a.r));
        as.push_back(human_seconds(a.a));
      }
      members.add_row({strprintf("EM%u", member + 1),
                       human_seconds(steady.sim.s),
                       human_seconds(steady.sim.w), join(rs, " "),
                       join(as, " "),
                       human_seconds(core::non_overlapped_segment(steady)),
                       fixed(core::computational_efficiency(steady), 3),
                       human_seconds(met::member_makespan(trace, member))});
    }
    std::cout << "\nmember model (Eqs. 1 and 3):\n" << members.render();
    std::cout << "\nensemble makespan: "
              << human_seconds(met::ensemble_makespan(trace)) << "\n";

    if (!spec_path.empty()) {
      // With the placement spec the full indicator chain is computable.
      rt::EnsembleSpec spec = rt::load_spec(spec_path);
      rt::ExecutionResult result;
      result.trace = trace;
      result.n_steps = trace.step_count({trace.members().front(), -1});
      const rt::Assessment a = rt::assess(spec, result);
      Table indicators({"stage", "F(P)"});
      for (const auto kind :
           {core::IndicatorKind::kU, core::IndicatorKind::kUP,
            core::IndicatorKind::kUA, core::IndicatorKind::kUAP}) {
        indicators.add_row(
            {core::to_string(kind), sci(a.objective(kind), 3)});
      }
      std::cout << "\nindicator chain for spec '" << spec.name
                << "' (M = " << a.total_nodes << "):\n"
                << indicators.render();
    }
    return 0;
  } catch (const wfe::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
