// EnsembleSpec validation and placement mapping.
#include "runtime/spec.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"
#include "workload/presets.hpp"

namespace wfe::rt {
namespace {

EnsembleSpec two_member_spec() {
  EnsembleSpec spec;
  spec.n_steps = 5;
  for (int i = 0; i < 2; ++i) {
    MemberSpec m;
    m.sim.nodes = {i};
    m.sim.cores = 16;
    m.analyses.push_back(AnalysisSpec{{i}, 8, "bipartite-eigen", {}});
    spec.members.push_back(std::move(m));
  }
  return spec;
}

plat::PlatformSpec platform() { return wl::cori_like_platform(4); }

TEST(EnsembleSpec, ValidSpecPasses) {
  EXPECT_NO_THROW(two_member_spec().validate(platform()));
}

TEST(EnsembleSpec, RejectsNoMembers) {
  EnsembleSpec spec;
  spec.n_steps = 1;
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsZeroSteps) {
  EnsembleSpec spec = two_member_spec();
  spec.n_steps = 0;
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsMemberWithoutAnalyses) {
  EnsembleSpec spec = two_member_spec();
  spec.members[0].analyses.clear();
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsNodeOutsidePlatform) {
  EnsembleSpec spec = two_member_spec();
  spec.members[0].sim.nodes = {99};
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsEmptyNodeSet) {
  EnsembleSpec spec = two_member_spec();
  spec.members[0].analyses[0].nodes.clear();
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsNonPositiveCores) {
  EnsembleSpec spec = two_member_spec();
  spec.members[0].sim.cores = 0;
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsNonPositiveStride) {
  EnsembleSpec spec = two_member_spec();
  spec.members[0].sim.stride = 0;
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, RejectsOversubscribedNode) {
  // 16 + 8 + 8 = 32 fits a 32-core node; adding one more 8-core analysis
  // does not.
  EnsembleSpec spec;
  spec.n_steps = 1;
  MemberSpec m;
  m.sim.nodes = {0};
  m.sim.cores = 16;
  for (int j = 0; j < 2; ++j) {
    m.analyses.push_back(AnalysisSpec{{0}, 8, "rgyr", {}});
  }
  spec.members.push_back(m);
  EXPECT_NO_THROW(spec.validate(platform()));
  EXPECT_EQ(spec.oversubscribed_node(platform()), -1);

  spec.members[0].analyses.push_back(AnalysisSpec{{0}, 8, "rgyr", {}});
  EXPECT_EQ(spec.oversubscribed_node(platform()), 0);
  try {
    spec.validate(platform());
    ADD_FAILURE() << "validate accepted an oversubscribed node";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "node 0 oversubscribed: 40.0 cores demanded, 32 available"),
              std::string::npos)
        << e.what();
  }

  // Off-platform nodes are not counted (validate rejects them itself).
  spec.members[0].sim.nodes = {0, 9};
  EXPECT_EQ(spec.oversubscribed_node(platform()), -1);
  EXPECT_THROW(spec.validate(platform()), SpecError);
}

TEST(EnsembleSpec, MultiNodeComponentSpreadsDemand) {
  // A 32-core simulation across two nodes demands 16 per node.
  EnsembleSpec spec;
  spec.n_steps = 1;
  MemberSpec m;
  m.sim.nodes = {0, 1};
  m.sim.cores = 32;
  m.analyses.push_back(AnalysisSpec{{0}, 16, "rgyr", {}});
  spec.members.push_back(m);
  EXPECT_NO_THROW(spec.validate(platform()));
  EXPECT_EQ(spec.oversubscribed_node(platform()), -1);
}

TEST(EnsembleSpec, TotalNodesIsUnion) {
  EXPECT_EQ(two_member_spec().total_nodes(), 2);

  EnsembleSpec spec = two_member_spec();
  spec.members[1].analyses[0].nodes = {3};
  EXPECT_EQ(spec.total_nodes(), 3);
}

TEST(EnsembleSpec, PlacementMapping) {
  const MemberSpec m = two_member_spec().members[1];
  const core::MemberPlacement p = m.placement();
  EXPECT_EQ(p.sim.nodes, (std::set<int>{1}));
  EXPECT_EQ(p.sim.cores, 16);
  ASSERT_EQ(p.analyses.size(), 1u);
  EXPECT_EQ(p.analyses[0].nodes, (std::set<int>{1}));
  EXPECT_EQ(p.analyses[0].cores, 8);
}

}  // namespace
}  // namespace wfe::rt
