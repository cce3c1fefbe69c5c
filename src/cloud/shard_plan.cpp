#include "cloud/shard_plan.h"

#include <cmath>
#include <numeric>

#include "net/shard_partition.h"

namespace hm::cloud {

ShardPlan one_slice_plan(std::size_t n_vms, std::string reason) {
  ShardPlan plan;
  plan.collapse_reason = std::move(reason);
  plan.slices.emplace_back(n_vms);
  std::iota(plan.slices[0].begin(), plan.slices[0].end(), 0u);
  return plan;
}

namespace {

/// Statically known cross-slice coupling (faults, global observers,
/// storage services, cross-VM workload channels, shared network
/// constraints), or empty if the slices can run independently.
std::string coupling_reason(const ExperimentConfig& cfg) {
  if (cfg.faults.enabled()) return "fault injection runs on one shard";
  if (cfg.audit) return "auditor observes every migration";
  if (cfg.perform_migrations && cfg.scheduler.enabled())
    return "continuous-arrival scheduler spans the fleet";
  if (cfg.approach == core::Approach::kPvfsShared || cfg.cluster.enable_pvfs)
    return "PVFS stripes across all nodes";
  switch (cfg.workload) {
    case WorkloadKind::kCm1:
      return "CM1 halo exchange spans VMs";
    case WorkloadKind::kIor:
      return "IOR reads fetch from the striped repository";
    case WorkloadKind::kTrace:
      if (!cfg.trace.broadcast) return "non-broadcast trace replay indexes VMs globally";
      break;
    default:
      break;
  }
  if (cfg.trace_recorder != nullptr)
    return "trace recording observes every VM";
  // A finite shared network constraint ties every flow crossing it to every
  // other: no slice could water-fill it alone.
  if (std::isfinite(cfg.cluster.network.fabric_Bps))
    return "finite fabric aggregate couples all flows";
  if (cfg.cluster.nodes_per_switch > 0 && std::isfinite(cfg.cluster.switch_uplink_Bps))
    return "finite switch uplinks couple racks";
  return {};
}

}  // namespace

ShardPlan plan_shards(const ExperimentConfig& cfg) {
  const std::size_t n_vms = cfg.num_vms;
  if (n_vms <= 1) return one_slice_plan(n_vms, {});
  if (std::string reason = coupling_reason(cfg); !reason.empty())
    return one_slice_plan(n_vms, std::move(reason));

  // Constraint-graph edges: each VM pins its home node's NICs for its whole
  // life; a migrated VM additionally pins its destination's. Destination
  // nodes are assigned round-robin, so distinct migrations sharing a
  // destination merge into one component here — exactly as their flows
  // would merge in the solver.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n_vms + cfg.num_migrations);
  for (std::uint32_t i = 0; i < n_vms; ++i)
    edges.emplace_back(i, i);  // VM i deploys on node i
  if (cfg.perform_migrations) {
    for (std::uint32_t k = 0; k < cfg.num_migrations; ++k)
      edges.emplace_back(k, cfg.destination_of(k));
  }

  ShardPlan plan;
  plan.slices = net::partition_items(n_vms, cfg.cluster.num_nodes, edges);
  if (plan.slices.size() <= 1) return one_slice_plan(n_vms, "single connected component");
  return plan;
}

}  // namespace hm::cloud
