#include "platform/cluster.hpp"

#include <algorithm>

#include "platform/topology.hpp"
#include "support/error.hpp"

namespace wfe::plat {

Cluster::Cluster(PlatformSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  const auto nodes = static_cast<std::size_t>(spec_.node_count);
  by_node_.resize(nodes);
  node_epoch_.assign(nodes, 1);
  cache_.resize(nodes);
}

void Cluster::check_node(int node) const {
  WFE_REQUIRE(node >= 0 && node < spec_.node_count,
              "node index out of range for this platform");
}

const StageCost& Cluster::resident_cost(std::uint64_t handle) const {
  WFE_REQUIRE(handle >= 1 && handle <= slots_.size() &&
                  slots_[static_cast<std::size_t>(handle - 1)].live,
              "unknown compute-stage handle");
  const Record& rec = slots_[static_cast<std::size_t>(handle - 1)];
  const auto node = static_cast<std::size_t>(rec.node);
  NodeCache& cache = cache_[node];
  const auto& handles = by_node_[node];
  if (cache.epoch != node_epoch_[node]) {
    // Reprice the whole co-location set in registration order, which is
    // the order each victim's competitors are walked in.
    cache.stages.clear();
    cache.stages.reserve(handles.size());
    for (std::uint64_t h : handles) cache.stages.push_back(stage_of(h));
    cache.costs.resize(handles.size());
    compute_stage_costs_batch(spec_, cache.stages, cache.costs);
    cache.epoch = node_epoch_[node];
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (handles[i] == handle) return cache.costs[i];
  }
  WFE_REQUIRE(false, "active stage missing from its node's co-location set");
  return cache.costs[0];  // unreachable
}

std::uint64_t Cluster::begin_compute(int node, const ComputeProfile& profile,
                                     int cores) {
  check_node(node);
  WFE_REQUIRE(cores > 0, "a compute stage needs at least one core");
  slots_.push_back(Record{node, true, ActiveStage{profile, cores}});
  const auto h = static_cast<std::uint64_t>(slots_.size());
  by_node_[static_cast<std::size_t>(node)].push_back(h);
  ++node_epoch_[static_cast<std::size_t>(node)];
  return h;
}

void Cluster::end_compute(std::uint64_t handle) {
  WFE_REQUIRE(handle >= 1 && handle <= slots_.size() &&
                  slots_[static_cast<std::size_t>(handle - 1)].live,
              "unknown compute-stage handle");
  Record& rec = slots_[static_cast<std::size_t>(handle - 1)];
  auto& vec = by_node_[static_cast<std::size_t>(rec.node)];
  vec.erase(std::remove(vec.begin(), vec.end(), handle), vec.end());
  rec.live = false;
  ++node_epoch_[static_cast<std::size_t>(rec.node)];
}

std::uint64_t Cluster::occupancy_epoch(int node) const {
  check_node(node);
  return node_epoch_[static_cast<std::size_t>(node)];
}

double Cluster::transfer_time(int src_node, int dst_node, double bytes) const {
  check_node(src_node);
  check_node(dst_node);
  if (src_node == dst_node) return local_copy_time(spec_.node, bytes);
  return network_transfer_time(spec_.interconnect, src_node, dst_node, bytes);
}

std::size_t Cluster::active_count(int node) const {
  check_node(node);
  return by_node_[static_cast<std::size_t>(node)].size();
}

int Cluster::active_cores(int node) const {
  check_node(node);
  int total = 0;
  for (std::uint64_t h : by_node_[static_cast<std::size_t>(node)]) {
    total += stage_of(h).cores;
  }
  return total;
}

bool Cluster::would_oversubscribe(int node, int cores) const {
  return active_cores(node) + cores > spec_.node.cores;
}

}  // namespace wfe::plat
