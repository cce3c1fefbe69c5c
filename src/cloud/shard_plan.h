// Static coupling analysis + slice planning for sharded experiments.
//
// The sharded execution contract is byte-identity: every virtual-time field
// of the merged result must equal the single-shard run's. That is provable
// only when the slices are causally independent — no finite network
// constraint, no storage service, no workload channel and no fault event
// spans two slices. plan_shards() decides that *conservatively* from the
// ExperimentConfig alone:
//
//  * Couplers that collapse the plan to one shard: PVFS (striped across
//    all nodes), CM1/IOR workloads (halo exchange / repository reads),
//    non-broadcast trace replay (absolute VM indices), trace recording
//    (observes every VM), the invariant auditor (observes every
//    migration), and non-routable fault regimes — churn processes, seeded
//    "rand:" draws (one shared RNG stream), and repo-/node-/domain-scoped
//    events. Scripted plans whose every event resolves inside one
//    migration's component ARE routable: each slice arms exactly the
//    events it owns and the merged timeline still matches shards=1.
//
//  * Finite *network* constraints no longer collapse the plan: a finite
//    fabric aggregate or finite switch uplinks yield a kEpochCoupled plan —
//    the same component partition, but the executor runs it under the
//    conservative-window protocol where a central mirror solver arbitrates
//    the shared constraints every settle epoch (net/coupled_solver.h).
//
//  * Otherwise VMs partition by the connected components of their planned
//    NIC endpoint sets (home node + migration destination) — the same
//    component structure FlowNetwork::solve_epoch maintains dynamically —
//    via net::partition_items, and run fully independently.
//
// cfg.shards == ExperimentConfig::kShardsAuto resolves the shard count at
// plan time to min(component count, workers available to sim::WorkerBudget
// plus the caller's thread). Auto never picks the epoch-coupled plan: a
// config with finite shared network constraints runs single-shard unless
// an explicit shard count asks for coupling.
//
// Residual couplings only observable at runtime (a repository fetch from a
// foreign-owned stripe, a max_sim_time truncation whose cut point depends
// on the global interleave) are caught by the executor's guards, which
// rerun the experiment single-shard. Wrong-but-fast is never an outcome;
// the fallback costs wall-clock only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {

/// How the executor must run the plan's slices.
enum class PlanKind : std::uint8_t {
  /// One slice, the exact legacy single-shard code path.
  kSingle,
  /// Slices are causally independent; run them with zero synchronization.
  kIndependent,
  /// Slices share finite network constraints (fabric aggregate / switch
  /// uplinks); run them under the epoch-coupled conservative-window
  /// protocol (net/coupled_solver.h).
  kEpochCoupled,
};

struct ShardPlan {
  /// Slices that actually run (non-empty, ascending VM ids inside each).
  /// Size 1 means the plan collapsed — the executor takes the exact
  /// single-shard code path.
  std::vector<std::vector<std::uint32_t>> slices;
  PlanKind kind = PlanKind::kSingle;
  /// kSingle: why the plan collapsed to one shard (empty when the config
  /// never asked for shards). kEpochCoupled: which finite shared constraint
  /// makes the shards exchange rate caps. Empty for kIndependent.
  std::string coupled_reason;
  /// Connected components found (0 when coupling was static).
  std::uint32_t components = 0;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(slices.size());
  }
};

/// Deterministic: same (normalized) config => same plan.
ShardPlan plan_shards(const ExperimentConfig& cfg);

}  // namespace hm::cloud
