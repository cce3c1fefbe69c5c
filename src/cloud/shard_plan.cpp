#include "cloud/shard_plan.h"

#include <algorithm>
#include <cmath>

#include "net/shard_partition.h"
#include "sim/worker_budget.h"

namespace hm::cloud {

namespace {

ShardPlan single(std::size_t n_vms, std::string reason) {
  ShardPlan plan;
  plan.collapse_reason = std::move(reason);
  plan.slices.emplace_back();
  plan.slices[0].reserve(n_vms);
  for (std::uint32_t i = 0; i < n_vms; ++i) plan.slices[0].push_back(i);
  return plan;
}

/// Why the fault axis forbids sharding this config, or empty when the fault
/// plan is routable: a scripted-only spec whose every event resolves to the
/// nodes of one migration's component, so each slice can arm exactly the
/// events it owns and the merged timeline still matches shards=1.
std::string fault_coupling_reason(const ExperimentConfig& cfg) {
  if (!cfg.faults.enabled()) return {};
  if (cfg.faults.churn) return "churn fault process spans every node";
  if (cfg.faults.rand) return "seeded fault draws share one RNG stream";
  if (!sim::fault_spec_shard_routable(cfg.faults))
    return "fault events target global or node-scoped resources";
  for (const sim::FaultEvent& ev : cfg.faults.scripted) {
    // Destination-scoped events resolve to node n_vms + k % num_destinations,
    // which is only guaranteed to sit in migration k's own component when the
    // schedule actually launches migration k.
    const std::size_t k = cfg.num_vms > 0 ? ev.target % cfg.num_vms : 0;
    const bool dst_scoped = ev.kind == sim::FaultKind::kDestCrash ||
                            ev.kind == sim::FaultKind::kSlowReceiver;
    if (dst_scoped && (!cfg.perform_migrations || k >= cfg.num_migrations))
      return "scripted fault targets an unused migration destination";
  }
  return {};
}

/// Statically known cross-slice coupling (fault regimes, global observers,
/// storage services, cross-VM workload channels, shared network
/// constraints), or empty if the slices can run independently.
std::string coupling_reason(const ExperimentConfig& cfg) {
  std::string fault_reason = fault_coupling_reason(cfg);
  if (!fault_reason.empty()) return fault_reason;
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

/// Resolve --shards=auto: as many shards as there are components to fill,
/// bounded by the worker threads the budget would grant plus the caller's
/// own thread (which runs shard 0).
std::uint32_t resolve_auto_shards(std::uint32_t components) {
  const std::size_t workers = sim::WorkerBudget::instance().available();
  const auto want = static_cast<std::uint32_t>(std::max<std::size_t>(1, workers + 1));
  return std::min(std::max(components, 1u), want);
}

}  // namespace

ShardPlan plan_shards(const ExperimentConfig& cfg) {
  const std::size_t n_vms = cfg.num_vms;
  const bool auto_shards = cfg.shards == ExperimentConfig::kShardsAuto;
  if (cfg.shards <= 1 || n_vms <= 1) return single(n_vms, {});
  std::string reason = coupling_reason(cfg);
  if (!reason.empty()) return single(n_vms, std::move(reason));

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
    for (std::uint32_t k = 0; k < cfg.num_migrations; ++k) {
      const auto dst = static_cast<std::uint32_t>(n_vms + (k % cfg.num_destinations));
      edges.emplace_back(k, dst);
    }
  }

  std::uint32_t bins = cfg.shards;
  if (auto_shards) {
    // Two passes: learn the component count with one bin per VM, then
    // re-bin to min(components, workers + caller).
    const net::ShardAssignment probe = net::partition_items(
        n_vms, cfg.cluster.num_nodes, edges, static_cast<std::uint32_t>(n_vms));
    bins = resolve_auto_shards(probe.components);
    if (bins <= 1) {
      ShardPlan plan = single(n_vms, probe.components <= 1
                                         ? "auto: single connected component"
                                         : "auto: no worker threads available");
      plan.components = probe.components;
      return plan;
    }
  }
  const net::ShardAssignment asg =
      net::partition_items(n_vms, cfg.cluster.num_nodes, edges, bins);

  ShardPlan plan;
  plan.components = asg.components;
  if (asg.bins_used <= 1) return single(n_vms, "single connected component");
  std::vector<std::vector<std::uint32_t>> slots(bins);
  for (std::uint32_t i = 0; i < n_vms; ++i)
    slots[asg.shard_of_item[i]].push_back(i);
  for (auto& b : slots)
    if (!b.empty()) plan.slices.push_back(std::move(b));  // VM ids already ascending
  return plan;
}

}  // namespace hm::cloud
