#include "workload/generators.hpp"

#include <set>
#include <string>

#include "support/error.hpp"
#include "support/str.hpp"
#include "workload/presets.hpp"

namespace wfe::wl {

namespace {

/// Relabel nodes in first-appearance order so placements that differ only
/// by node naming collapse to one canonical assignment vector. The relabel
/// table is a flat array indexed by node id (-1 = unseen) — this runs once
/// per enumerated candidate, so no per-candidate tree allocations.
std::vector<int> canonical_form(const std::vector<int>& assignment,
                                int node_pool) {
  std::vector<int> relabel(static_cast<std::size_t>(node_pool), -1);
  int next = 0;
  std::vector<int> out;
  out.reserve(assignment.size());
  for (int node : assignment) {
    int& label = relabel[static_cast<std::size_t>(node)];
    if (label < 0) label = next++;
    out.push_back(label);
  }
  return out;
}

std::string assignment_name(const std::vector<int>& assignment, int members,
                            int analyses) {
  std::string name;
  std::size_t idx = 0;
  for (int m = 0; m < members; ++m) {
    if (m != 0) name += "|";
    name += strprintf("s%d", assignment[idx++]);
    for (int j = 0; j < analyses; ++j) {
      name += strprintf("a%d", assignment[idx++]);
    }
  }
  return name;
}

}  // namespace

std::vector<NamedConfig> enumerate_placements(
    const plat::PlatformSpec& platform, const EnumerationOptions& options) {
  WFE_REQUIRE(options.members >= 1, "need at least one member");
  WFE_REQUIRE(options.analyses_per_member >= 1, "need at least one analysis");
  WFE_REQUIRE(options.node_pool >= 1, "need at least one node in the pool");
  WFE_REQUIRE(options.node_pool <= platform.node_count,
              "node pool larger than the platform");

  const int slots = options.members * (1 + options.analyses_per_member);
  WFE_REQUIRE(slots <= 12, "enumeration is exponential; cap at 12 components");

  std::vector<NamedConfig> out;
  std::set<std::vector<int>> seen;
  std::vector<int> assignment(static_cast<std::size_t>(slots), 0);

  for (;;) {
    const std::vector<int> canon =
        options.canonicalize ? canonical_form(assignment, options.node_pool)
                             : assignment;
    if (seen.insert(canon).second) {
      // Build the spec for this assignment.
      rt::EnsembleSpec spec;
      spec.n_steps = kPaperInSituSteps;
      std::size_t idx = 0;
      for (int m = 0; m < options.members; ++m) {
        rt::MemberSpec member;
        member.sim = gltph_like_simulation({canon[idx++]});
        for (int j = 0; j < options.analyses_per_member; ++j) {
          member.analyses.push_back(bipartite_like_analysis({canon[idx++]}));
        }
        spec.members.push_back(std::move(member));
      }
      spec.name = assignment_name(canon, options.members,
                                  options.analyses_per_member);

      if (!options.skip_oversubscribed ||
          spec.oversubscribed_node(platform) < 0) {
        NamedConfig config;
        config.name = spec.name;
        config.nodes = spec.total_nodes();
        config.spec = std::move(spec);
        out.push_back(std::move(config));
      }
    }

    // Odometer increment over the assignment vector.
    int pos = slots - 1;
    while (pos >= 0) {
      if (++assignment[static_cast<std::size_t>(pos)] < options.node_pool) {
        break;
      }
      assignment[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return out;
}

}  // namespace wfe::wl
