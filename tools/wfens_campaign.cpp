// wfens_campaign: regenerate the paper's figure/table units through the
// shared, cache-backed scoring pipeline.
//
// Usage:  wfens_campaign [--threads N] [--units a,b,...] [--list]
//                        [--plan sched1,sched2,...]
//                        [--cache PATH] [--out FILE]
//
// Each unit (Table 2, Table 4, the C1.x figure sweep — see --list) is
// scored by a sched::BatchEvaluator fanning replays over an
// exec::ThreadPool. With --cache PATH all units share one
// sched::EvalCache, loaded from and saved back to PATH, so a repeated
// campaign regeneration — same platform fingerprint, same demand digest —
// re-simulates nothing. A PATH this build cannot read (foreign, newer
// format, torn) is reported on stderr and left as found; the campaign then
// runs cold and saves nothing. Without it the campaign runs cold and reads or
// writes no file; --out writes a flat JSON report (CAMPAIGN.json-style)
// for regression diffs.
//
// --plan runs the planning campaign instead: each named scheduler places
// the standard paper-shaped demands through the same shared EvalCache, so
// probes one scheduler already paid for show up as shared-tier hits in the
// next one's cost column (e.g. bai-search planning warm after exhaustive).
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "sched/eval_cache.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfe;
  int threads = 1;
  bool list = false;
  std::string cache_path;  // empty = no persistent cache
  std::string out_path;
  std::vector<std::string> unit_filter;
  std::vector<std::string> plan_schedulers;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      if (!parse_flag(arg, argv[++i], threads, std::cerr, 1)) return 2;
    } else if (arg == "--units" && i + 1 < argc) {
      unit_filter = split_csv(argv[++i]);
    } else if (arg == "--plan" && i + 1 < argc) {
      plan_schedulers = split_csv(argv[++i]);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: wfens_campaign [--threads N] [--units a,b,...] "
                   "[--list] [--plan sched1,sched2,...] "
                   "[--cache PATH] [--out FILE]\n";
      return 2;
    }
  }

  try {
    std::vector<bench::CampaignUnit> units = bench::campaign_units();
    if (list) {
      Table table({"unit", "configs", "steps", "artifact"});
      for (const auto& u : units) {
        table.add_row({u.name, std::to_string(u.configs.size()),
                       std::to_string(u.probe_steps), u.artifact});
      }
      std::cout << table.render();
      return 0;
    }
    if (!unit_filter.empty()) {
      std::vector<bench::CampaignUnit> selected;
      for (const std::string& want : unit_filter) {
        bool found = false;
        for (const auto& u : units) {
          if (u.name == want) {
            selected.push_back(u);
            found = true;
            break;
          }
        }
        if (!found) {
          std::cerr << "unknown unit: " << want << " (see --list)\n";
          return 2;
        }
      }
      units = std::move(selected);
    }

    sched::EvalCache cache;
    sched::EvalCache* shared = nullptr;
    bool save_cache = false;  // false when the file could not be read
    if (!cache_path.empty()) {
      shared = &cache;
      try {
        const std::size_t loaded = shared->load(cache_path);
        std::cout << "cache: " << cache_path << " (" << loaded
                  << " entries loaded)\n\n";
        save_cache = true;
      } catch (const SerializationError& e) {
        // A foreign, newer or torn file: run cold and never overwrite what
        // this build cannot read.
        std::cerr << "cache: " << cache_path << " unreadable (" << e.what()
                  << "); running cold, file left as found\n";
      }
    } else {
      std::cout << "cache: disabled\n\n";
    }

    if (!plan_schedulers.empty()) {
      const auto rows =
          bench::run_plan_campaign(plan_schedulers, threads, shared);
      Table table({"scheduler", "shape", "objective", "sims", "memo",
                   "shared", "samples"});
      std::size_t plan_evals = 0;
      std::size_t plan_shared = 0;
      for (const auto& row : rows) {
        table.add_row({row.scheduler, row.shape, fixed(row.objective, 4),
                       std::to_string(row.evaluations),
                       std::to_string(row.cache_hits),
                       std::to_string(row.shared_hits),
                       std::to_string(row.samples)});
        plan_evals += row.evaluations;
        plan_shared += row.shared_hits;
      }
      std::cout << table.render();
      std::cout << strprintf(
          "plan campaign total: %zu fresh simulations, %zu shared-cache "
          "hits\n",
          plan_evals, plan_shared);
      if (save_cache) {
        const std::size_t saved = shared->save(cache_path);
        std::cout << "cache: " << saved << " entries saved\n";
      }
      return 0;
    }

    const auto results = bench::run_campaign(units, threads, shared);

    std::size_t total_evals = 0;
    std::size_t total_hits = 0;
    for (const auto& r : results) {
      std::cout << "== " << r.unit << " ==\n";
      Table table(
          {"config", "objective", "makespan_s", "min_eff", "nodes", "src"});
      for (const auto& row : r.rows) {
        if (!row.feasible) {
          table.add_row({row.config, "infeasible", "-", "-", "-",
                         row.cached ? "cache" : "sim"});
          continue;
        }
        table.add_row({row.config, fixed(row.eval.objective, 4),
                       fixed(row.eval.ensemble_makespan, 1),
                       fixed(row.eval.min_member_efficiency, 4),
                       std::to_string(row.eval.nodes_used),
                       row.cached ? "cache" : "sim"});
      }
      std::cout << table.render();
      std::cout << strprintf(
          "%zu fresh simulations, %zu cache hits, %.3fs\n\n", r.evaluations,
          r.cache_hits, r.seconds);
      total_evals += r.evaluations;
      total_hits += r.cache_hits;
    }
    std::cout << strprintf("campaign total: %zu fresh simulations, "
                           "%zu cache hits\n",
                           total_evals, total_hits);

    if (save_cache) {
      const std::size_t saved = shared->save(cache_path);
      std::cout << "cache: " << saved << " entries saved\n";
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) throw Error(strprintf("cannot write %s", out_path.c_str()));
      out << "{\n  \"bench\": \"campaign\",\n";
      out << strprintf("  \"threads\": %d,\n", threads);
      out << strprintf("  \"fresh_evaluations\": %zu,\n", total_evals);
      out << strprintf("  \"cache_hits\": %zu,\n", total_hits);
      out << "  \"units\": [\n";
      for (std::size_t u = 0; u < results.size(); ++u) {
        const auto& r = results[u];
        out << strprintf(
            "    {\"unit\": \"%s\", \"evaluations\": %zu, "
            "\"cache_hits\": %zu, \"rows\": [\n",
            r.unit.c_str(), r.evaluations, r.cache_hits);
        for (std::size_t i = 0; i < r.rows.size(); ++i) {
          const auto& row = r.rows[i];
          out << strprintf(
              "      {\"config\": \"%s\", \"feasible\": %s, "
              "\"cached\": %s, \"objective\": %.17g, "
              "\"makespan_s\": %.17g, \"min_efficiency\": %.17g, "
              "\"nodes\": %d}%s\n",
              row.config.c_str(), row.feasible ? "true" : "false",
              row.cached ? "true" : "false", row.eval.objective,
              row.eval.ensemble_makespan, row.eval.min_member_efficiency,
              row.eval.nodes_used, i + 1 < r.rows.size() ? "," : "");
        }
        out << "    ]}" << (u + 1 < results.size() ? ",\n" : "\n");
      }
      out << "  ]\n}\n";
      std::cout << "wrote " << out_path << "\n";
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
