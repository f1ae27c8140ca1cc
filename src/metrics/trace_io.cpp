#include "metrics/trace_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/str.hpp"

namespace wfe::met {

namespace {

using core::StageKind;

const StageKind kAllKinds[] = {
    StageKind::kSimulate, StageKind::kSimIdle,    StageKind::kWrite,
    StageKind::kRead,     StageKind::kAnalyze,    StageKind::kAnaIdle,
    StageKind::kFault,    StageKind::kBackoff,    StageKind::kCheckpoint,
    StageKind::kRestart,  StageKind::kMigrate};

StageKind kind_from_mnemonic(std::string_view m) {
  for (StageKind k : kAllKinds) {
    if (stage_mnemonic(k) == m) return k;
  }
  throw SerializationError("WFET: unknown stage mnemonic '" +
                           std::string(m) + "'");
}

}  // namespace

std::string_view stage_mnemonic(StageKind kind) {
  switch (kind) {
    case StageKind::kSimulate:
      return "S";
    case StageKind::kSimIdle:
      return "IS";
    case StageKind::kWrite:
      return "W";
    case StageKind::kRead:
      return "R";
    case StageKind::kAnalyze:
      return "A";
    case StageKind::kAnaIdle:
      return "IA";
    case StageKind::kFault:
      return "F";
    case StageKind::kBackoff:
      return "B";
    case StageKind::kCheckpoint:
      return "CP";
    case StageKind::kRestart:
      return "RS";
    case StageKind::kMigrate:
      return "MG";
  }
  throw SerializationError("WFET: unknown stage kind");
}

std::string trace_to_text(const Trace& trace) {
  std::string out = "WFET 1\n";
  for (const StageRecord& r : trace.records()) {
    out += strprintf(
        "record %u %d %" PRIu64 " %s %.17g %.17g %.17g %.17g %.17g %.17g\n",
        r.component.member, r.component.analysis, r.step,
        std::string(stage_mnemonic(r.kind)).c_str(), r.start, r.end,
        r.counters.instructions, r.counters.cycles,
        r.counters.llc_references, r.counters.llc_misses);
  }
  out += strprintf("end %zu\n", trace.size());
  return out;
}

Trace trace_from_text(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;

  if (!std::getline(in, line) || line != "WFET 1") {
    throw SerializationError("WFET: missing or unsupported header");
  }

  std::vector<StageRecord> records;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") {
      std::size_t count = 0;
      if (!(ls >> count) || count != records.size()) {
        throw SerializationError("WFET: record count mismatch in trailer");
      }
      saw_end = true;
      break;
    }
    if (tag != "record") {
      throw SerializationError("WFET: unexpected line tag '" + tag + "'");
    }
    StageRecord r;
    std::string mnemonic;
    if (!(ls >> r.component.member >> r.component.analysis >> r.step >>
          mnemonic >> r.start >> r.end >> r.counters.instructions >>
          r.counters.cycles >> r.counters.llc_references >>
          r.counters.llc_misses)) {
      throw SerializationError("WFET: malformed record line");
    }
    if (r.component.analysis < -1) {
      throw SerializationError(
          "WFET: analysis index below -1 (-1 marks the simulation)");
    }
    r.kind = kind_from_mnemonic(mnemonic);
    if (r.end < r.start) {
      throw SerializationError("WFET: record ends before it starts");
    }
    records.push_back(r);
  }
  if (!saw_end) {
    throw SerializationError("WFET: missing 'end' trailer (truncated file?)");
  }
  return Trace(std::move(records));
}

std::string trace_to_csv(const Trace& trace) {
  std::string out =
      "member,analysis,step,stage,start,end,duration,instructions,cycles,"
      "llc_references,llc_misses\n";
  for (const StageRecord& r : trace.records()) {
    out += strprintf("%u,%d,%" PRIu64 ",%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                     r.component.member, r.component.analysis, r.step,
                     std::string(stage_mnemonic(r.kind)).c_str(), r.start,
                     r.end, r.duration(), r.counters.instructions,
                     r.counters.cycles, r.counters.llc_references,
                     r.counters.llc_misses);
  }
  return out;
}

void save_trace(const std::filesystem::path& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot open " + path.string() + " for writing");
  out << trace_to_text(trace);
  if (!out) throw Error("short write to " + path.string());
}

Trace load_trace(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return trace_from_text(buffer.str());
}

}  // namespace wfe::met
