#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "support/str.hpp"

namespace wfe::bench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.parent = tracer.open_;
  span.op = tracer.op_;
  span.start = seconds_since(tracer.origin_);
  tracer.spans_.push_back(std::move(span));
  tracer.open_ = static_cast<long>(index_);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[index_];
  span.end = seconds_since(tracer_.origin_);
  tracer_.open_ = span.parent;
}

void Tracer::Scope::attr(const char* key, double value) {
  tracer_.spans_[index_].attrs.emplace_back(key, value);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << strprintf(R"({"id": %zu, "parent": %ld, "op": %llu, "name": "%s", )"
                     R"("start": %.17g, "end": %.17g, "attrs": {)",
                     i, s.parent, static_cast<unsigned long long>(s.op),
                     s.name, s.start, s.end);
    for (std::size_t a = 0; a < s.attrs.size(); ++a) {
      out << (a ? ", " : "")
          << strprintf(R"("%s": %.17g)", s.attrs[a].first,
                       s.attrs[a].second);
    }
    out << "}}\n";
  }
}

std::string placement_string(const rt::EnsembleSpec& spec) {
  std::string out;
  const auto add_nodes = [&out](const std::set<int>& set) {
    const char* sep = "";
    for (const int n : set) {
      out += sep;
      out += std::to_string(n);
      sep = "+";
    }
  };
  for (const rt::MemberSpec& m : spec.members) {
    if (!out.empty()) out += ';';
    add_nodes(m.sim.nodes);
    out += '/';
    for (std::size_t j = 0; j < m.analyses.size(); ++j) {
      if (j > 0) out += ',';
      add_nodes(m.analyses[j].nodes);
    }
  }
  return out;
}

std::string mismatch(std::string_view what, double got, double want) {
  return strprintf("%.*s: got %.17g, expected %.17g",
                   static_cast<int>(what.size()), what.data(), got, want);
}

}  // namespace wfe::bench
