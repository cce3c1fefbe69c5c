// Static coupling analysis + slice planning for experiments.
//
// The slice contract is byte-identity: every virtual-time field of the
// merged result is a pure function of the config, whatever the worker
// count. That holds because the plan itself is: plan_shards() reads the
// ExperimentConfig and never its `shards`. It slices *conservatively*:
//
//  * Couplers that collapse the plan to one slice: any fault spec
//    (scripted, rand: or churn:), the invariant auditor (observes every
//    migration), the continuous-arrival scheduler, PVFS (striped across all
//    nodes), CM1/IOR workloads (halo exchange / repository reads),
//    non-broadcast trace replay (absolute VM indices), trace recording
//    (observes every VM), and finally a finite fabric aggregate or finite
//    switch uplinks (every flow competes for them). The first one found,
//    in that order, is the reported reason.
//
//  * Otherwise each connected component of the VMs' planned NIC endpoint
//    sets (home node + migration destination) — the same component
//    structure FlowNetwork::solve_epoch maintains dynamically — is its own
//    slice, found by net::partition_items. Slices run fully independently,
//    each in its own small simulator; the worker count of the one fan-out
//    (cloud/executor.h) only sets how many threads run them (one runs
//    every slice in turn).
//
// Residual couplings only observable at runtime (a repository fetch from a
// foreign-owned stripe, a max_sim_time truncation whose cut point depends
// on the global interleave) are caught by the executor's guards, which
// rerun the experiment as the one-slice plan. Wrong-but-fast is never an
// outcome; the fallback costs wall-clock only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {

struct ShardPlan {
  /// Slices that actually run (ascending VM ids inside each, ascending
  /// minimal VM across them). Size 1 means the plan collapsed to the one
  /// slice that lists every VM; the executor runs and merges it like any
  /// other plan. More than one: one slice per constraint-graph component,
  /// causally independent, run with zero synchronization.
  std::vector<std::vector<std::uint32_t>> slices;
  /// Why the plan collapsed to one slice; empty when it did not (or when
  /// the fleet has at most one VM). Reports print it only when a worker
  /// count was asked for (the kShards regime of shard_fallback_reason).
  std::string collapse_reason;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(slices.size());
  }
};

/// Deterministic: same (normalized) config => same slices, at any
/// cfg.shards.
ShardPlan plan_shards(const ExperimentConfig& cfg);

/// The plan that runs the whole fleet (VMs 0..n_vms-1) in one simulator:
/// what every collapse and every runtime-guard rerun executes.
ShardPlan one_slice_plan(std::size_t n_vms, std::string reason);

}  // namespace hm::cloud
