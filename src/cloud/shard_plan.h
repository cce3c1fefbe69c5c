// Static coupling analysis + slice planning for sharded experiments.
//
// The sharded execution contract is byte-identity: every virtual-time field
// of the merged result must equal the one-slice run's. That is provable
// only when the slices are causally independent — no finite network
// constraint, no storage service, no workload channel and no fault event
// spans two slices. plan_shards() decides that *conservatively* from the
// ExperimentConfig alone:
//
//  * Couplers that collapse the plan to one shard: any fault spec
//    (scripted, rand: or churn:), the invariant auditor (observes every
//    migration), the continuous-arrival scheduler, PVFS (striped across all
//    nodes), CM1/IOR workloads (halo exchange / repository reads),
//    non-broadcast trace replay (absolute VM indices), trace recording
//    (observes every VM), and finally a finite fabric aggregate or finite
//    switch uplinks (every flow competes for them). The first one found,
//    in that order, is the reported reason.
//
//  * Otherwise VMs partition by the connected components of their planned
//    NIC endpoint sets (home node + migration destination) — the same
//    component structure FlowNetwork::solve_epoch maintains dynamically —
//    via net::partition_items into at most `shards` slices, and run fully
//    independently.
//
// Residual couplings only observable at runtime (a repository fetch from a
// foreign-owned stripe, a max_sim_time truncation whose cut point depends
// on the global interleave) are caught by the executor's guards, which
// rerun the experiment as the one-slice plan. Wrong-but-fast is never an
// outcome; the fallback costs wall-clock only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {

struct ShardPlan {
  /// Slices that actually run (ascending VM ids inside each). Size 1 means
  /// the plan collapsed to the one slice that lists every VM; the executor
  /// runs and merges it like any other plan. More than one: the slices are
  /// causally independent and run with zero synchronization.
  std::vector<std::vector<std::uint32_t>> slices;
  /// Why the plan collapsed to one shard; empty when it did not, or when
  /// the config never asked for shards.
  std::string collapse_reason;
  /// Connected components found (0 when coupling was static).
  std::uint32_t components = 0;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(slices.size());
  }
};

/// Deterministic: same (normalized) config => same plan.
ShardPlan plan_shards(const ExperimentConfig& cfg);

}  // namespace hm::cloud
