// Sharded-experiment determinism contract: with cfg.shards > 1 and a
// decomposable scenario, the merged result must be BYTE-identical to the
// single-shard run in every virtual-time field — migration records, traffic
// by class, workload aggregates, solver work counters — for any shard
// count, in both solver regimes. Coupled regimes (CM1, faults, finite
// fabric or uplinks) and runtime guard trips (max_sim_time truncation) must
// fall back to one shard transparently. Only the result-field table's
// implementation-class counters (events, frames, epochs) may differ, as in
// the --shards sweep gates.
#include <gtest/gtest.h>

#include "cloud/experiment.h"
#include "cloud/shard_plan.h"
#include "integration/result_compare.h"
#include "net/flow_network.h"
#include "sim/fault_plan.h"

namespace hm::cloud {
namespace {

using storage::kKiB;
using storage::kMiB;

/// Decomposable AsyncWR fleet: unlimited fabric (non-blocking core), flat
/// topology, one distinct destination per migration => every VM is its own
/// constraint-graph component.
ExperimentConfig decomposable_config(int incremental) {
  ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.image = storage::ImageConfig{64 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.cluster.network.incremental = incremental;
  cfg.cluster.network.fabric_Bps = net::kUnlimitedRate;
  cfg.vm.memory.ram_bytes = 64 * kMiB;
  cfg.vm.memory.page_bytes = 256 * kKiB;
  cfg.vm.memory.base_used_bytes = 16 * kMiB;
  cfg.vm.cache.capacity_bytes = 32 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 16 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 20;
  cfg.asyncwr.file_offset = 32 * kMiB;
  cfg.num_vms = 8;
  cfg.num_migrations = 8;
  cfg.num_destinations = 8;
  cfg.first_migration_at = 1.5;
  cfg.migration_interval_s = 0.5;  // staggered: distinct event timestamps
  cfg.max_sim_time = 600.0;
  return cfg;
}

/// Every virtual field, plus solver work. `exact_epochs` compares
/// settle-epoch counts; burst/broadcast scenarios batch same-timestamp churn
/// of several components into shared epochs a sharded run cannot share
/// (same work, more epochs), so those pass false. `exact_work` compares the solver
/// work counters (components water-filled, flows resolved): they sum
/// exactly in the incremental regime (work is component-scoped), but a
/// full re-solve (the sweeps' --full-solve) touches every live flow each
/// epoch, so a global run does strictly more work than the shards' local
/// full-solves — the same split check_sweep_golden.py makes with
/// --ignore-solver-work.
void expect_identical(const ExperimentResult& ref, const ExperimentResult& got,
                      bool exact_epochs, bool exact_work = true) {
  expect_virtual_fields_equal(ref, got);
  // Solver work: escalations always sum exactly; scheduler bookkeeping
  // (events, frames) is never compared.
  EXPECT_EQ(ref.engine_escalations, got.engine_escalations);
  if (exact_work) {
    EXPECT_EQ(ref.engine_components, got.engine_components);
    EXPECT_EQ(ref.engine_flows_resolved, got.engine_flows_resolved);
  }
  if (exact_epochs) EXPECT_EQ(ref.engine_recomputes, got.engine_recomputes);
}

ExperimentResult run_with_shards(ExperimentConfig cfg, std::uint32_t shards) {
  cfg.shards = shards;
  return Experiment(std::move(cfg)).run();
}

TEST(ShardPlanning, HardCouplersCollapse) {
  ExperimentConfig base = decomposable_config(1);
  base.shards = 4;
  base.normalize();
  EXPECT_GT(plan_shards(base).shard_count(), 1u);
  EXPECT_TRUE(plan_shards(base).collapse_reason.empty());

  auto reason = [](ExperimentConfig cfg) {
    cfg.normalize();
    const ShardPlan plan = plan_shards(cfg);
    EXPECT_EQ(plan.shard_count(), 1u);
    return plan.collapse_reason;
  };

  {
    ExperimentConfig c = base;
    c.shards = 1;
    EXPECT_EQ(plan_shards(c).shard_count(), 1u);  // sharding not requested
  }
  {
    ExperimentConfig c = base;
    c.workload = WorkloadKind::kCm1;
    EXPECT_FALSE(reason(c).empty());
  }
  {
    ExperimentConfig c = base;
    c.workload = WorkloadKind::kIor;
    EXPECT_FALSE(reason(c).empty());
  }
  {
    ExperimentConfig c = base;
    std::string err;
    ASSERT_TRUE(sim::parse_fault_spec("rand:crashes=1", &c.faults, &err)) << err;
    EXPECT_FALSE(reason(c).empty());
  }
  {
    ExperimentConfig c = base;
    c.num_destinations = 1;  // every migration lands on one node
    c.normalize();
    const ShardPlan plan = plan_shards(c);
    EXPECT_EQ(plan.shard_count(), 1u);
    EXPECT_EQ(plan.collapse_reason, "single connected component");
  }
}

TEST(ShardPlanning, FiniteNetworkCollapsesAtEveryShardCount) {
  // A finite fabric aggregate or finite switch uplinks tie every flow to
  // every other, so the plan is one shard at any requested count and says
  // why. The unlimited-network control shards.
  ExperimentConfig control = decomposable_config(1);
  control.shards = 4;
  control.normalize();
  EXPECT_EQ(plan_shards(control).shard_count(), 4u);

  ExperimentConfig fabric = decomposable_config(1);
  fabric.cluster.network.fabric_Bps = 8e9;
  ExperimentConfig uplinks = decomposable_config(1);
  uplinks.cluster.nodes_per_switch = 4;
  uplinks.cluster.switch_uplink_Bps = 1e9;
  const std::pair<ExperimentConfig, const char*> cases[] = {
      {fabric, "finite fabric aggregate couples all flows"},
      {uplinks, "finite switch uplinks couple racks"},
  };
  for (const auto& [base, why] : cases) {
    SCOPED_TRACE(why);
    for (std::uint32_t n : {4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(n));
      ExperimentConfig c = base;
      c.shards = n;
      c.normalize();
      const ShardPlan plan = plan_shards(c);
      EXPECT_EQ(plan.shard_count(), 1u);
      EXPECT_EQ(plan.collapse_reason, why);
    }
    // The run is the one-slice plan, as at shards=1: every field matches.
    const ExperimentResult ref = run_with_shards(base, 1);
    EXPECT_TRUE(ref.completed);
    const ExperimentResult got = run_with_shards(base, 4);
    EXPECT_EQ(got.shards_used, 1u);
    EXPECT_EQ(got.shard_fallback_reason, why);
    expect_identical(ref, got, /*exact_epochs=*/true);
    EXPECT_EQ(ref.engine_events, got.engine_events);
    EXPECT_EQ(ref.engine_frames, got.engine_frames);
  }
}

TEST(ShardDeterminism, ByteIdenticalAcrossShardCounts) {
  for (int incremental : {1, 0}) {
    SCOPED_TRACE(incremental ? "incremental" : "fullsolve");
    const ExperimentResult ref = run_with_shards(decomposable_config(incremental), 1);
    ASSERT_TRUE(ref.completed);
    ASSERT_TRUE(ref.error.empty()) << ref.error;
    ASSERT_EQ(ref.migrations.size(), 8u);
    EXPECT_GT(ref.max_downtime, 0.0);  // the comparison must not be vacuous
    EXPECT_EQ(ref.shards_used, 1u);

    for (std::uint32_t n : {2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(n));
      const ExperimentResult got = run_with_shards(decomposable_config(incremental), n);
      // 8 singleton components pack n bins: a genuinely parallel run.
      EXPECT_EQ(got.shards_used, n);
      EXPECT_TRUE(got.shard_fallback_reason.empty()) << got.shard_fallback_reason;
      expect_identical(ref, got, /*exact_epochs=*/true,
                       /*exact_work=*/incremental == 1);
    }
  }
}

TEST(ShardDeterminism, SimultaneousMigrationsStayByteIdentical) {
  // interval = 0: every migration launches at the same instant, so settle
  // epochs that one global run batches across components split per shard —
  // epoch counts drift, every simulated field must not.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.migration_interval_s = 0.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 4u);
  expect_identical(ref, got, /*exact_epochs=*/false);
}

TEST(ShardDeterminism, SharedDestinationsMergeComponents) {
  // 8 migrations round-robin onto 4 destinations: VM k and VM k+4 share a
  // destination NIC, so the partitioner must merge them — 4 components,
  // even when 8 shards were requested.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.num_destinations = 4;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  const ExperimentResult got = run_with_shards(cfg, 8);
  EXPECT_EQ(got.shards_used, 4u);
  expect_identical(ref, got, /*exact_epochs=*/true);
}

TEST(ShardDeterminism, TornPartitionRunsOnFewerShards) {
  // Two VMs, eight requested shards: two components, six empty bins. The
  // run must use exactly the two real slices and stay byte-identical.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.num_vms = 2;
  cfg.num_migrations = 2;
  cfg.num_destinations = 2;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  ASSERT_EQ(ref.migrations.size(), 2u);
  const ExperimentResult got = run_with_shards(cfg, 8);
  EXPECT_EQ(got.shards_used, 2u);
  expect_identical(ref, got, /*exact_epochs=*/true);
}

TEST(ShardDeterminism, BroadcastTraceReplayShards) {
  // A generated broadcast trace fans the same op stream to every VM —
  // decomposable, but every VM sees identical timestamps, so epoch counts
  // drift like the simultaneous case.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.workload = WorkloadKind::kTrace;
  cfg.trace.gen.pattern = workloads::TracePattern::kZipfian;
  cfg.trace.gen.duration_s = 15.0;
  cfg.trace.gen.pages = 256;
  cfg.trace.gen.chunks = 128;
  cfg.trace.gen.file_offset = 32 * kMiB;
  cfg.num_vms = 4;
  cfg.num_migrations = 4;
  cfg.num_destinations = 4;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 4u);
  expect_identical(ref, got, /*exact_epochs=*/false);
}

TEST(ShardFallback, SeededFaultDrawsCollapseToOneShard) {
  // rand: plan draws share one RNG stream: the planner must refuse to
  // shard, and the run must match the explicit single-shard run exactly
  // (same code path, same seed).
  ExperimentConfig cfg = decomposable_config(1);
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "rand:crashes=1,degrades=1,from=2,span=3,dur=2", &cfg.faults, &err))
      << err;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 1u);
  EXPECT_EQ(got.shard_fallback_reason, "fault injection runs on one shard");
  EXPECT_GT(got.recovery.faults_injected, 0u);  // the axis actually fired
  expect_identical(ref, got, /*exact_epochs=*/true);
}

TEST(ShardFallback, EveryFaultSpecCollapsesWithOneReason) {
  // Scripted events of every scope, seeded draws and churn all run on one
  // shard, with one reason.
  for (const char* spec :
       {"src-crash@2+3#1;degrade@4+5*0.25#2;flap@6+1#5", "dst-crash@2+3#6", "node-crash@5+4#3",
        "repo-outage@5+4", "domain-crash@5+4#0;domains:rack0=0-1", "rand:crashes=1",
        "churn:crash-mtbf=50,crash-mttr=5"}) {
    ExperimentConfig cfg = decomposable_config(1);
    cfg.shards = 4;
    std::string err;
    ASSERT_TRUE(sim::parse_fault_spec(spec, &cfg.faults, &err)) << err;
    cfg.normalize();
    const ShardPlan plan = plan_shards(cfg);
    EXPECT_EQ(plan.shard_count(), 1u) << spec;
    EXPECT_EQ(plan.collapse_reason, "fault injection runs on one shard") << spec;
  }
}

TEST(ShardFallback, ScriptedFaultPlanCollapsesAndMatchesOneShard) {
  // Migration-scoped scripted events (src-crash, degrade, flap on migration
  // k) run on one shard like every fault spec: the run at shards=4 is the
  // one-slice run, byte-identical to shards=1.
  ExperimentConfig cfg = decomposable_config(1);
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "src-crash@2.0+3#1;degrade@4+5*0.25#2;flap@6+1#5", &cfg.faults, &err))
      << err;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.recovery.faults_injected, 3u);
  EXPECT_GE(ref.recovery.total_retries, 1);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 1u);
  EXPECT_EQ(got.shard_fallback_reason, "fault injection runs on one shard");
  expect_identical(ref, got, /*exact_epochs=*/true);
  EXPECT_EQ(ref.engine_events, got.engine_events);
}

TEST(ShardFallback, AuditedRunCollapsesToOneShard) {
  ExperimentConfig cfg = decomposable_config(1);
  cfg.audit = true;
  cfg.shards = 4;
  cfg.normalize();
  const ShardPlan plan = plan_shards(cfg);
  EXPECT_EQ(plan.shard_count(), 1u);
  EXPECT_EQ(plan.collapse_reason, "auditor observes every migration");
}

TEST(ShardFallback, Cm1CollapsesToOneShard) {
  ExperimentConfig cfg = decomposable_config(1);
  cfg.workload = WorkloadKind::kCm1;
  cfg.cm1.grid_x = 2;
  cfg.cm1.grid_y = 2;
  cfg.cm1.step_compute_s = 0.5;
  cfg.cm1.steps_per_output = 2;
  cfg.cm1.num_outputs = 2;
  cfg.cm1.output_bytes = 8 * kMiB;
  cfg.cm1.halo_bytes = 256 * kKiB;
  cfg.cm1.file_offset = 32 * kMiB;
  cfg.cm1.dirty_Bps = 1e6;
  cfg.cm1.ws_bytes = 16 * kMiB;
  cfg.num_migrations = 2;
  cfg.num_destinations = 2;
  cfg.first_migration_at = 1.0;
  cfg.migration_interval_s = 0.7;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 1u);
  expect_identical(ref, got, /*exact_epochs=*/true);
}

TEST(ShardFallback, TruncatedRunRerunsSingleShard) {
  // max_sim_time cuts the run mid-migration: where the cut lands depends on
  // the global interleave, which a slice cannot know — the executor's guard
  // must detect the incomplete slice and transparently rerun single-shard,
  // reproducing the single-shard truncation exactly.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.max_sim_time = 3.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_FALSE(ref.completed);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 1u);
  EXPECT_EQ(got.shard_fallback_reason, "runtime guard: max_sim_time truncation");
  EXPECT_FALSE(got.completed);
  expect_identical(ref, got, /*exact_epochs=*/true);
}

}  // namespace
}  // namespace hm::cloud
