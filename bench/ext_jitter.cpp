// Extension — measurement noise and the robustness of the indicator.
//
// The paper averages 5 trials per configuration on a real, noisy machine;
// Eq. (9)'s stddev penalty exists because member performance varies. This
// experiment injects mean-preserving lognormal jitter (CV 5%) into every
// stage duration, replays the Table 2 set across seeds, and reports the
// spread of F(P^{U,A,P}) per configuration plus how often the paper's
// winner, C1.5, stays on top — i.e. whether the indicator's verdict is
// noise-robust.
#include "bench_common.hpp"

#include "workload/campaign.hpp"

int main() {
  using namespace wfe;
  bench::print_banner(
      "Extension: indicator robustness under measurement noise",
      "Lognormal jitter (CV 5%) on every stage duration, 15 seeded trials\n"
      "per Table 2 configuration. F(P^{U,A,P}) mean +- stddev and the\n"
      "fraction of trials won by each configuration.");

  wl::CampaignOptions options;
  options.trials = 15;
  options.jitter_cv = 0.05;
  options.base_seed = 1000;
  options.n_steps = 12;
  const auto stats =
      wl::run_campaign(wl::paper_set1(), wl::cori_like_platform(), options);

  Table table({"config", "F(P^{U,A,P}) mean", "stddev", "min", "max",
               "trials won"});
  for (const auto& s : stats) {
    const Summary& f = s.objective;
    table.add_row({s.name, sci(f.mean, 3), sci(f.stddev, 2), sci(f.min, 3),
                   sci(f.max, 3),
                   strprintf("%d/%d", s.wins, options.trials)});
  }
  std::cout << table.render();
  std::cout << "\nDeterministic reference (jitter off): F(C1.5) = "
            << sci(bench::run_set({wl::paper_config("C1.5")})[0]
                       .assessment.objective(core::IndicatorKind::kUAP),
                   3)
            << "\n";
  return 0;
}
