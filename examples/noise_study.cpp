// Noise study: is the indicator's verdict robust to machine variability?
//
// Uses the campaign API to replay the paper's Table 2 configuration set
// across seeded trials with lognormal stage-duration jitter (the paper
// itself averages 5 trials per configuration), then reports the
// F(P^{U,A,P}) distribution and the win counts.
//
// Usage:  ./noise_study [trials] [jitter_cv]
// A malformed or out-of-range number exits 2.
#include <iostream>

#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"
#include "workload/campaign.hpp"
#include "workload/presets.hpp"

int main(int argc, char** argv) {
  using namespace wfe;

  wl::CampaignOptions options;
  options.trials = 9;
  options.jitter_cv = 0.05;
  options.n_steps = 10;
  if ((argc > 1 &&
       !parse_flag("trials", argv[1], options.trials, std::cerr, 1)) ||
      (argc > 2 &&
       !parse_flag("jitter_cv", argv[2], options.jitter_cv, std::cerr, 0.0))) {
    return 2;
  }

  try {
    std::cout << "campaign: " << options.trials << " trials, jitter CV "
              << fixed(options.jitter_cv, 3) << ", Table 2 set\n\n";

    const auto stats = wl::run_campaign(wl::paper_set1(),
                                        wl::cori_like_platform(), options);

    Table table({"config", "F mean", "F stddev", "makespan mean [s]",
                 "min E mean", "wins"});
    for (const auto& s : stats) {
      table.add_row({s.name, sci(s.objective.mean, 3),
                     sci(s.objective.stddev, 2), fixed(s.makespan.mean, 1),
                     fixed(s.min_member_efficiency.mean, 3),
                     strprintf("%d/%d", s.wins, options.trials)});
    }
    std::cout << table.render();
    std::cout << "\nIf C1.5 wins every trial, the placement recommendation\n"
                 "is robust at this noise level.\n";
    return 0;
  } catch (const wfe::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
