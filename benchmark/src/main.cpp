// wfens_bench: runs one benchmark workload and reports it.
//
//   wfens_bench --workload W [--seed N] [--seconds 20] [--trace 0|1]
//               [--ops N] [--setups N] [--out-dir DIR] [--expected FILE]
//               [--git-head SHA]
//   wfens_bench --print-expected
//
// Closed loop with one client: ops run back to back for kRunSeconds, or
// exactly --ops of them (the self-tests), after --setups set-ups whose
// median is reported. The run length is fixed, so that two commits are
// always measured alike; --seconds is part of the benchmark's command line
// and is refused unless it names that length.
//
// A timed untraced run measures in kParts processes, one after another,
// each for an equal share of kRunSeconds after its own set-ups
// (setups_per_process()), and pools their op times and set-ups. Each part
// is a fresh exec with its own randomized memory layout: on one host the
// layout alone moves a process's op time by several percent (plan-warm's
// by about 7 %), and a single process would report whichever layout it
// drew. Part k starts at input k,
// so the parts together cover every demand variant. The parts run this
// binary with the internal options --part-out FILE (write the raw
// measurement there, print nothing) and --first-op K.
//
// Untraced, the last line of stdout is the result, {"correct", "attempted",
// "failed", "metrics"} with every end-to-end metric, and
// <out-dir>/<W>-seed<N>.json holds it with the host block. With --trace 1
// one process runs every input untraced and every trace_every()-th input
// traced as well, the two in alternating order. The spans go to
// <out-dir>/<W>-seed<N>.spans.jsonl, from which trace_summary.py computes
// the per-layer metrics.
//
// --print-expected runs each workload's warm-up op and prints the outputs
// benchmark/expected.json commits.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"

extern char** environ;

namespace wfe::bench {
namespace {

constexpr std::size_t kMaxErrorsShown = 5;
constexpr int kParts = 5;
/// How long a timed run measures (BENCHMARK.json's run_seconds).
constexpr double kRunSeconds = 20.0;

struct Args {
  std::string self;  // argv[0], to start the parts
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t ops = 0;  // 0: run for kRunSeconds (a part: its share)
  int setups = 3;
  std::string out_dir = ".";
  std::string expected = "benchmark/expected.json";
  std::string git_head = "unknown";
  bool print_expected = false;
  std::string part_out;  // set in a part: where its measurement goes
  std::uint64_t first_op = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "wfens_bench: " << why
            << "\nusage: wfens_bench --workload "
               "paper-replay|plan-cold|plan-warm|plan-stochastic [--seed N] "
            << strprintf("[--seconds %g] ", kRunSeconds)
            << "[--trace 0|1] [--ops N] [--setups N] "
               "[--out-dir DIR] [--expected FILE] [--git-head SHA]\n"
               "       wfens_bench --print-expected\n";
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-expected") {
      args.print_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      if (value.empty() || std::strtod(value.c_str(), &end) != kRunSeconds ||
          *end != '\0') {
        usage(strprintf("the run length is fixed at %g s, got --seconds '%s'",
                        kRunSeconds, value.c_str()));
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--ops") {
      args.ops = parse_count(flag, value);
    } else if (flag == "--setups") {
      args.setups = static_cast<int>(std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(parse_count(flag, value), 100)));
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--expected") {
      args.expected = value;
    } else if (flag == "--git-head") {
      args.git_head = value;
    } else if (flag == "--part-out") {
      args.part_out = value;
    } else if (flag == "--first-op") {
      args.first_op = parse_count(flag, value);
    } else {
      usage("unknown option " + flag);
    }
  }
  if (!args.print_expected && args.workload.empty()) usage("no --workload");
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& context) {
  if (name == "paper-replay") return make_paper_replay(context);
  return make_planning(name, context);
}

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const std::size_t start = line.find_first_not_of(' ', colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

/// The host block of every result: what a number was measured on.
std::vector<std::pair<std::string, std::string>> host_block(
    const Args& args) {
  return {{"nproc", std::to_string(usable_cpus())},
          {"cpu", cpu_model()},
          {"compiler", WFENS_BENCH_COMPILER},
          {"build_type", WFENS_BENCH_BUILD_TYPE},
          {"WFENS_LOCK_RANK", WFENS_BENCH_LOCK_RANK ? "ON" : "OFF"},
          {"WFENS_OBS", WFENS_BENCH_OBS ? "ON" : "OFF"},
          {"plan_threads", std::to_string(kPlanThreads)},
          {"measure_processes", std::to_string(kParts)},
          {"git_head", args.git_head}};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) {
    out += strprintf("%s%.17g", out.size() > 1 ? ", " : "", v);
  }
  return out + "]";
}

std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (const std::string& v : values) {
    out += (out.size() > 1 ? ", \"" : "\"") + json::escape(v) + "\"";
  }
  return out + "]";
}

/// What one process measured.
struct Measurement {
  std::vector<double> setup_s;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::size_t op_failures = 0;
  bool setup_failed = false;  // fails every op after it
  std::vector<double> rss_mb;
  std::vector<std::string> errors;

  void report(const std::string& workload, const std::string& what) {
    if (std::find(errors.begin(), errors.end(), what) == errors.end() &&
        errors.size() < kMaxErrorsShown) {
      errors.push_back(what);
      std::cerr << "wfens_bench: " << workload << ": " << what << "\n";
    }
  }

  /// Pool one measuring process's part of a timed (so untraced) run.
  void add(const Measurement& part) {
    const auto append = [](std::vector<double>& into,
                           const std::vector<double>& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    append(setup_s, part.setup_s);
    append(untraced_s, part.untraced_s);
    append(rss_mb, part.rss_mb);
    op_failures += part.op_failures;
    setup_failed = setup_failed || part.setup_failed;
    for (const std::string& e : part.errors) {
      if (errors.size() < kMaxErrorsShown) errors.push_back(e);
    }
  }

  std::string to_json() const {
    return strprintf("{\"setup_s\": %s, \"untraced_s\": %s, "
                     "\"op_failures\": %zu, \"setup_failed\": %s, "
                     "\"rss_mb\": %s, \"errors\": %s}\n",
                     json_array(setup_s).c_str(),
                     json_array(untraced_s).c_str(), op_failures,
                     setup_failed ? "true" : "false",
                     json_array(rss_mb).c_str(), json_array(errors).c_str());
  }

  static Measurement from_json(const json::Value& v) {
    Measurement m;
    const auto numbers = [&](const char* key, std::vector<double>& into) {
      for (const json::Value& x : v.at(key).as_array()) {
        into.push_back(x.as_number());
      }
    };
    numbers("setup_s", m.setup_s);
    numbers("untraced_s", m.untraced_s);
    numbers("rss_mb", m.rss_mb);
    m.op_failures = static_cast<std::size_t>(v.at("op_failures").as_number());
    m.setup_failed = v.at("setup_failed").as_bool();
    for (const json::Value& e : v.at("errors").as_array()) {
      m.errors.push_back(e.as_string());
    }
    return m;
  }
};

/// Set up and run the closed loop in this process.
Measurement measure(const Args& args, Workload& workload, Tracer& tracer) {
  Measurement m;
  bool setup_threw = false;
  for (int s = 0; s < args.setups && !setup_threw; ++s) {
    const Clock::time_point t0 = Clock::now();
    try {
      const std::string error = workload.setup();
      if (!error.empty()) m.report(args.workload, "set-up: " + error);
      m.setup_failed = m.setup_failed || !error.empty();
    } catch (const std::exception& e) {
      m.report(args.workload, std::string("set-up threw: ") + e.what());
      m.setup_failed = setup_threw = true;
    }
    m.setup_s.push_back(seconds_since(t0));
  }

  const auto run_one = [&](std::uint64_t op, Tracer* t) {
    std::string error;
    try {
      const Clock::time_point t0 = Clock::now();
      if (t != nullptr) {
        t->set_op(op);
        Tracer::Scope root(*t, "op");
        workload.run_op(op, t);
      } else {
        workload.run_op(op, nullptr);
      }
      (t ? m.traced_s : m.untraced_s).push_back(seconds_since(t0));
      if (t != nullptr) {
        Tracer::Scope root(*t, "diag");
        workload.diagnose(op, *t);
      }
      error = workload.check_op(op);
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    if (!error.empty()) {
      ++m.op_failures;
      m.report(args.workload,
               strprintf("op %llu: ", static_cast<unsigned long long>(op)) +
                   error);
    }
  };
  const double seconds =
      args.part_out.empty() ? kRunSeconds : kRunSeconds / kParts;
  const Clock::time_point loop_start = Clock::now();
  const auto more = [&](std::uint64_t done) {
    return args.ops > 0 ? done < args.ops
                        : seconds_since(loop_start) < seconds;
  };
  for (std::uint64_t done = 0; !setup_threw && more(done); ++done) {
    // Traced inputs alternate which of the two runs first, so neither
    // always follows the previous input's diagnostics.
    const std::uint64_t op = args.first_op + done;
    const bool traced = args.trace && op % workload.trace_every() == 0;
    const bool traced_first = traced && m.traced_s.size() % 2 == 1;
    if (traced_first) run_one(op, &tracer);
    run_one(op, nullptr);
    if (traced && !traced_first) run_one(op, &tracer);
  }
  m.rss_mb.push_back(peak_rss_mb());
  return m;
}

/// Run part `k` of a timed run in its own process and read what it measured.
Measurement measure_part(const Args& args, const Workload& workload, int k) {
  const std::string out =
      args.out_dir + "/" + args.workload +
      strprintf("-seed%llu.part%d.json",
                static_cast<unsigned long long>(args.seed), k);
  const std::vector<std::string> words = {
      args.self, "--workload", args.workload,
      "--seed", std::to_string(args.seed),
      "--setups", std::to_string(workload.setups_per_process()),
      "--out-dir", args.out_dir,
      "--expected", args.expected,
      "--first-op", std::to_string(k),
      "--part-out", out};
  std::vector<char*> argv;
  for (const std::string& w : words) {
    argv.push_back(const_cast<char*>(w.c_str()));
  }
  argv.push_back(nullptr);
  std::remove(out.c_str());
  pid_t pid = 0;
  int status = 0;
  if (posix_spawn(&pid, args.self.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0 ||
      waitpid(pid, &status, 0) != pid) {
    throw std::runtime_error("cannot run a measuring process " + args.self);
  }
  Measurement m;
  try {
    m = Measurement::from_json(json::parse(read_file(out)));
  } catch (const std::exception& e) {
    m.setup_failed = true;
    m.report(args.workload, strprintf("measuring process %d failed (status "
                                      "%d): %s", k, status, e.what()));
  }
  std::remove(out.c_str());
  return m;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     out.size() > 1 ? ", " : "", m.name.c_str(), m.value,
                     m.unit.c_str());
  }
  return out + "}";
}

int print_expected() {
  Context context;  // null expected: nothing to check against yet
  std::string out = "{";
  // plan-warm checks against plan-cold's section (and writes a cache file).
  for (const char* name : {"paper-replay", "plan-cold", "plan-stochastic"}) {
    const auto workload = make_workload(name, context);
    const std::string error = workload->setup();
    if (!error.empty()) {
      std::cerr << name << ": " << error << "\n";
      return 1;
    }
    const std::string section = workload->expected_json();
    if (!section.empty()) out += (out.size() > 1 ? ",\n  " : "\n  ") + section;
  }
  std::cout << out << "\n}\n";
  return 0;
}

/// Print and write the result of a run.
int report(const Args& args, const Workload& workload, const Measurement& m) {
  const std::size_t attempted =
      std::max<std::size_t>(1, m.untraced_s.size() + m.traced_s.size());
  const std::size_t failed = m.setup_failed ? attempted : m.op_failures;
  const bool correct = failed == 0;
  double timed_s = 0.0;
  for (const double s : m.untraced_s) timed_s += s;
  const double tail = workload.tail_percentile();
  const std::vector<Metric> metrics = {
      {"setup_s", median(m.setup_s), "s"},
      {"op_p50_s", median(m.untraced_s), "s"},
      {"op_tail_s", quantile(m.untraced_s, tail), "s"},
      {"ops_per_s",
       timed_s > 0.0 ? static_cast<double>(m.untraced_s.size()) / timed_s : 0.0,
       "1/s"},
      {"peak_rss_mb", median(m.rss_mb), "MB"},
  };
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const auto host = host_block(args);

  std::cout << strprintf("workload %s  seed %llu  %zu ops",
                         args.workload.c_str(),
                         static_cast<unsigned long long>(args.seed),
                         m.untraced_s.size());
  if (args.trace) std::cout << strprintf(" + %zu traced", m.traced_s.size());
  std::cout << strprintf("  (%zu process%s)\n", m.rss_mb.size(),
                         m.rss_mb.size() == 1 ? "" : "es");
  for (const Metric& metric : metrics) {
    std::string note;
    if (metric.name == "setup_s") {
      note = strprintf("median of %zu set-ups", m.setup_s.size());
    } else if (metric.name == "op_p50_s") {
      note = strprintf("%zu ops", m.untraced_s.size());
    } else if (metric.name == "op_tail_s") {
      note = strprintf("p%g of %zu ops", 100.0 * tail, m.untraced_s.size());
    } else if (metric.name == "peak_rss_mb") {
      note = "median over processes";
    }
    std::cout << strprintf("  %-13s %-12.6g %-4s %s\n", metric.name.c_str(),
                           metric.value, metric.unit.c_str(), note.c_str());
  }
  std::cout << strprintf("  %-13s %-12.6g %-4s %zu of %zu ops\n",
                         "failed_ratio", failed_ratio, "", failed, attempted);
  std::cout << "host:";
  for (const auto& [key, value] : host) std::cout << " " << key << "=" << value;
  std::cout << "\n";

  std::string host_json = "{";
  for (const auto& [key, value] : host) {
    host_json += strprintf("%s\"%s\": \"%s\"", host_json.size() > 1 ? ", " : "",
                           key.c_str(), json::escape(value).c_str());
  }
  host_json += "}";
  const std::string stem =
      args.out_dir + "/" + args.workload +
      strprintf("-seed%llu", static_cast<unsigned long long>(args.seed));
  std::ofstream results(stem + (args.trace ? "-trace.json" : ".json"));
  results << strprintf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %.17g, \"correct\": %s, \"attempted\": %zu, "
      "\"failed\": %zu, \"failed_ratio\": %.17g, \"ops\": %zu, "
      "\"traced_ops\": %zu, \"tail_percentile\": %.17g, ",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, args.ops > 0 ? 0.0 : kRunSeconds,
      correct ? "true" : "false", attempted,
      failed, failed_ratio, m.untraced_s.size(), m.traced_s.size(), tail);
  results << "\"errors\": " << json_array(m.errors)
          << ", \"metrics\": " << metrics_json(metrics)
          << ", \"host\": " << host_json << "}\n";

  if (!args.trace) {
    std::cout << strprintf(
                     "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                     "\"metrics\": ",
                     correct ? "true" : "false", attempted, failed)
              << metrics_json(metrics) << "}\n";
  }
  return correct ? 0 : 1;
}

int run(const Args& args) {
  Context context;
  context.seed = args.seed;
  context.out_dir = args.out_dir;
  context.expected = json::parse(read_file(args.expected));
  const auto workload = make_workload(args.workload, context);
  if (!workload) usage("unknown workload '" + args.workload + "'");
  if (args.part_out.empty() && usable_cpus() < kPlanThreads) {
    std::cerr << "wfens_bench: warning: planning uses " << kPlanThreads
              << " threads but this host has " << usable_cpus()
              << " CPUs; planning times are not comparable\n";
  }

  if (!args.part_out.empty()) {  // one part of a timed run
    Tracer unused;
    const Measurement m = measure(args, *workload, unused);
    std::ofstream(args.part_out) << m.to_json();
    return 0;
  }
  Measurement m;
  if (args.trace || args.ops > 0) {
    Tracer tracer;
    m = measure(args, *workload, tracer);
    if (args.trace) {
      tracer.write_jsonl(args.out_dir + "/" + args.workload +
                         strprintf("-seed%llu.spans.jsonl",
                                   static_cast<unsigned long long>(args.seed)));
    }
  } else {
    for (int k = 0; k < kParts; ++k) m.add(measure_part(args, *workload, k));
  }
  return report(args, *workload, m);
}

}  // namespace
}  // namespace wfe::bench

int main(int argc, char** argv) {
  const wfe::bench::Args args = wfe::bench::parse_args(argc, argv);
  try {
    return args.print_expected ? wfe::bench::print_expected()
                               : wfe::bench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "wfens_bench: " << e.what() << "\n";
    return 2;
  }
}
