// paper-replay: the assessment user's path (wfens_run / wfens_campaign).
//
// One op replays all 20 paper configurations — Table 2, Table 4 and the
// C1.x set, 37 in situ steps each — with SimulatedExecutor::run and scores
// each with rt::assess, on one thread. The seed only permutes their order.
// All of its time is in simengine, platform, metrics, runtime and core; it
// never touches sched, exec or EvalCache, so it moves with replay and
// assessment changes and stays flat under search changes.
#include <algorithm>
#include <optional>
#include <utility>

#include "bench.hpp"
#include "core/efficiency.hpp"
#include "core/insitu.hpp"
#include "metrics/steady_state.hpp"
#include "metrics/traditional.hpp"
#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace wfe::bench {
namespace {

/// What the checks compare for one configuration.
struct ConfigOutput {
  double events = 0.0;
  double records = 0.0;
  double objective = 0.0;
  double makespan = 0.0;
};

class PaperReplay final : public Workload {
 public:
  explicit PaperReplay(const Context& context) : context_(context) {}

  std::string setup() override {
    configs_.clear();
    for (auto&& set : {wl::paper_table2(), wl::paper_table4(),
                       wl::paper_set1()}) {
      configs_.insert(configs_.end(), set.begin(), set.end());
    }
    Xoshiro256 rng(context_.seed);
    for (std::size_t i = configs_.size(); i > 1; --i) {
      std::swap(configs_[i - 1], configs_[rng.below(i)]);
    }
    exec_.emplace(wl::cori_like_platform());
    outputs_.assign(configs_.size(), {});
    run_op(0, nullptr);
    return check_op(0);
  }

  void run_op(std::uint64_t /*op*/, Tracer* tracer) override {
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const rt::EnsembleSpec& spec = configs_[i].spec;
      outputs_[i] = tracer ? traced(spec, *tracer) : untraced(spec);
    }
  }

  std::string check_op(std::uint64_t /*op*/) override {
    if (context_.expected.is_null()) return "";  // --print-expected
    const json::Value& want = context_.expected.at("paper_replay");
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const std::string& name = configs_[i].name;
      const json::Value* w = want.find(name);
      if (w == nullptr) return name + ": no expected output";
      const ConfigOutput& got = outputs_[i];
      for (const auto& [key, value] :
           {std::pair{"events", got.events}, std::pair{"records", got.records},
            std::pair{"objective", got.objective},
            std::pair{"makespan", got.makespan}}) {
        const double expected = w->at(key).as_number();
        if (value != expected) {
          return mismatch(name + " " + key, value, expected);
        }
      }
    }
    return "";
  }

  double tail_percentile() const override { return 0.9; }
  std::uint64_t trace_every() const override { return 16; }

  std::string expected_json() const override {
    std::string out = "\"paper_replay\": {";
    std::vector<std::size_t> order(configs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return configs_[a].name < configs_[b].name;
    });
    std::string last;
    for (const std::size_t i : order) {
      if (configs_[i].name == last) continue;  // C1.x is in two sets
      last = configs_[i].name;
      const ConfigOutput& o = outputs_[i];
      out += strprintf(
          "%s\n    \"%s\": {\"events\": %.17g, \"records\": %.17g, "
          "\"objective\": %.17g, \"makespan\": %.17g}",
          out.back() == '{' ? "" : ",", last.c_str(), o.events, o.records,
          o.objective, o.makespan);
    }
    return out + "\n  }";
  }

 private:
  ConfigOutput untraced(const rt::EnsembleSpec& spec) const {
    const rt::ExecutionResult result = exec_->run(spec);
    const rt::Assessment a = rt::assess(spec, result);
    return {static_cast<double>(result.events_processed),
            static_cast<double>(result.trace.size()),
            a.objective(core::IndicatorKind::kUAP),
            a.ensemble_makespan_measured};
  }

  /// rt::assess split into its public calls, so the metrics and core layers
  /// get spans of their own. The objective and makespan must still match
  /// the committed bits, which proves the split computes what assess does.
  ConfigOutput traced(const rt::EnsembleSpec& spec, Tracer& tracer) const {
    ConfigOutput out;
    rt::ExecutionResult result;
    {
      Tracer::Scope span(tracer, "runtime.replay");
      result = exec_->run(spec);
      span.attr("events", static_cast<double>(result.events_processed));
      span.attr("records", static_cast<double>(result.trace.size()));
    }
    out.events = static_cast<double>(result.events_processed);
    out.records = static_cast<double>(result.trace.size());

    Tracer::Scope assess_span(tracer, "runtime.assess");
    const std::size_t n = spec.members.size();
    std::vector<rt::MemberAssessment> members(n);
    double ensemble_makespan = 0.0;
    {
      Tracer::Scope span(tracer, "metrics.steady_state");
      for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        members[i].steady = met::member_steady_state(result.trace, id);
        members[i].makespan_measured = met::member_makespan(result.trace, id);
      }
      ensemble_makespan = met::ensemble_makespan(result.trace);
    }
    {
      Tracer::Scope span(tracer, "core.model");
      std::vector<core::EnsembleMemberModel> model_members;
      model_members.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        rt::MemberAssessment& a = members[i];
        a.sigma = core::non_overlapped_segment(a.steady);
        a.efficiency = core::computational_efficiency(a.steady);
        a.makespan_model =
            core::member_makespan_model(a.steady, result.n_steps);
        model_members.push_back({a.steady, spec.members[i].placement()});
      }
      const rt::Assessment a{std::move(members), spec.total_nodes(),
                             ensemble_makespan,
                             core::EnsembleModel(std::move(model_members))};
      out.objective = a.objective(core::IndicatorKind::kUAP);
      out.makespan = a.ensemble_makespan_measured;
    }
    return out;
  }

  const Context& context_;
  std::vector<wl::NamedConfig> configs_;
  std::optional<rt::SimulatedExecutor> exec_;
  std::vector<ConfigOutput> outputs_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_replay(const Context& context) {
  return std::make_unique<PaperReplay>(context);
}

}  // namespace wfe::bench
