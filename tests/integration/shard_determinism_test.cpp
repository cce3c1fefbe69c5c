// Slice determinism contract: the slice plan is a pure function of the
// config, one slice per constraint-graph component at any cfg.shards, so
// cfg.shards only sets how many workers run them. Two references:
//  * the whole fleet in one simulator (Experiment::run on one_slice_plan):
//    splitting the fleet into components must reproduce it in every
//    virtual-time field — migration records, traffic by class, workload
//    aggregates — and in the solver work a split preserves;
//  * the same plan on another worker count: BYTE-identical in every
//    virtual field and every engine counter (events, settle epochs,
//    frames, solver work), in both solver regimes.
// Coupled regimes (CM1, faults, finite fabric or uplinks) and runtime guard
// trips (max_sim_time truncation) run the one slice transparently and say
// why. A sweep runs every point's slices from one work queue, and each row
// must equal the point's lone run at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <variant>

#include "cloud/experiment.h"
#include "cloud/report.h"
#include "cloud/scenarios.h"
#include "cloud/shard_plan.h"
#include "cloud/sweep.h"
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

/// The whole fleet in one simulator, whatever the plan would be.
ExperimentResult run_whole_fleet(const ExperimentConfig& cfg) {
  Experiment exp(cfg);
  return exp.run(one_slice_plan(exp.config().num_vms, "whole-fleet reference"));
}

/// A decomposed run against the whole fleet in one simulator: every
/// virtual field, plus solver work. `exact_epochs` compares settle-epoch
/// counts; burst/broadcast scenarios batch same-timestamp churn of several
/// components into shared epochs that per-component simulators cannot
/// share (same work, more epochs), so those pass false. `exact_work`
/// compares the solver work counters (components water-filled, flows
/// resolved): they sum exactly in the incremental regime (work is
/// component-scoped), but a full re-solve touches every live flow each
/// epoch, so one simulator does strictly more work than the components'
/// local full-solves — the split check_sweep_golden.py makes with
/// --ignore-solver-work.
void expect_matches_whole_fleet(const ExperimentResult& whole, const ExperimentResult& got,
                                bool exact_epochs, bool exact_work = true) {
  EXPECT_EQ(whole.shards_used, 1u);
  expect_virtual_fields_equal(whole, got);
  EXPECT_EQ(whole.engine_escalations, got.engine_escalations);
  if (exact_work) {
    EXPECT_EQ(whole.engine_components, got.engine_components);
    EXPECT_EQ(whole.engine_flows_resolved, got.engine_flows_resolved);
  }
  if (exact_epochs) EXPECT_EQ(whole.engine_recomputes, got.engine_recomputes);
}

/// Every virtual field, plus every engine counter the golden classes
/// strip: the runs compared here execute the same slices, so even the
/// bookkeeping of their per-slice simulators must match.
void expect_identical(const ExperimentResult& ref, const ExperimentResult& got) {
  expect_virtual_fields_equal(ref, got);
  EXPECT_EQ(ref.shards_used, got.shards_used);
  EXPECT_EQ(ref.engine_escalations, got.engine_escalations);
  EXPECT_EQ(ref.engine_components, got.engine_components);
  EXPECT_EQ(ref.engine_flows_resolved, got.engine_flows_resolved);
  EXPECT_EQ(ref.engine_recomputes, got.engine_recomputes);
  EXPECT_EQ(ref.engine_events, got.engine_events);
  EXPECT_EQ(ref.engine_frames, got.engine_frames);
}

/// How far the whole fleet in one simulator may drift from its split on a
/// long scale point: the byte advance rounds once per settle epoch, and
/// one simulator's epochs span every component (worst seen: 2e-12).
constexpr double kWholeFleetRel = 1e-9;

/// expect_virtual_fields_equal, with doubles compared to `rel` relative.
void expect_virtual_fields_near(const ExperimentResult& a, const ExperimentResult& b,
                                double rel) {
  const auto expect_near = [rel](double x, double y, const std::string& what) {
    EXPECT_LE(std::abs(x - y), rel * std::max(std::abs(x), std::abs(y)))
        << what << ": " << x << " vs " << y;
  };
  for (const ResultField& f : result_fields()) {
    if (f.classes != 0) continue;
    const FieldValue x = f.get(a), y = f.get(b);
    if (std::holds_alternative<double>(x.v) && std::holds_alternative<double>(y.v))
      expect_near(std::get<double>(x.v), std::get<double>(y.v), f.name);
    else
      EXPECT_EQ(x, y) << f.name;
  }
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    const core::MigrationRecord& x = a.migrations[i];
    const core::MigrationRecord& y = b.migrations[i];
    const std::string at = "migration " + std::to_string(i);
    EXPECT_EQ(x.vm_id, y.vm_id) << at;
    EXPECT_EQ(x.memory_rounds, y.memory_rounds) << at;
    expect_near(x.t_request, y.t_request, at + " t_request");
    expect_near(x.t_control_transfer, y.t_control_transfer, at + " t_control_transfer");
    expect_near(x.t_source_released, y.t_source_released, at + " t_source_released");
    expect_near(x.downtime_s, y.downtime_s, at + " downtime_s");
    expect_near(x.memory_bytes_sent, y.memory_bytes_sent, at + " memory_bytes_sent");
    expect_near(x.storage_chunks_pushed, y.storage_chunks_pushed, at + " chunks_pushed");
    expect_near(x.storage_chunks_pulled, y.storage_chunks_pulled, at + " chunks_pulled");
  }
}

ExperimentResult run_with_shards(ExperimentConfig cfg, std::uint32_t shards) {
  cfg.shards = shards;
  return Experiment(std::move(cfg)).run();
}

TEST(ShardPlanning, HardCouplersCollapse) {
  // The decomposable fleet is 8 components at every worker count.
  for (std::uint32_t n : {1u, 4u}) {
    ExperimentConfig c = decomposable_config(1);
    c.shards = n;
    c.normalize();
    const ShardPlan plan = plan_shards(c);
    EXPECT_EQ(plan.shard_count(), 8u) << "shards=" << n;
    EXPECT_TRUE(plan.collapse_reason.empty()) << plan.collapse_reason;
  }
  ExperimentConfig base = decomposable_config(1);
  base.shards = 4;
  base.normalize();

  auto reason = [](ExperimentConfig cfg) {
    cfg.normalize();
    const ShardPlan plan = plan_shards(cfg);
    EXPECT_EQ(plan.shard_count(), 1u);
    // The plan, reason included, does not read the worker count.
    cfg.shards = 1;
    const ShardPlan one = plan_shards(cfg);
    EXPECT_EQ(one.shard_count(), 1u);
    EXPECT_EQ(one.collapse_reason, plan.collapse_reason);
    return plan.collapse_reason;
  };

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
    EXPECT_EQ(reason(c), "single connected component");
  }
}

TEST(ShardPlanning, FiniteNetworkCollapsesAtEveryShardCount) {
  // A finite fabric aggregate or finite switch uplinks tie every flow to
  // every other, so the plan is one slice at any worker count and says why.
  // The unlimited-network control is 8 slices at any worker count.
  for (std::uint32_t n : {1u, 4u}) {
    ExperimentConfig control = decomposable_config(1);
    control.shards = n;
    control.normalize();
    EXPECT_EQ(plan_shards(control).shard_count(), 8u) << "shards=" << n;
  }

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
    for (std::uint32_t n : {1u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(n));
      ExperimentConfig c = base;
      c.shards = n;
      c.normalize();
      const ShardPlan plan = plan_shards(c);
      EXPECT_EQ(plan.shard_count(), 1u);
      EXPECT_EQ(plan.collapse_reason, why);
    }
    // The run is the one-slice plan at any worker count: every field matches.
    const ExperimentResult ref = run_with_shards(base, 1);
    EXPECT_TRUE(ref.completed);
    EXPECT_EQ(ref.shards_used, 1u);
    EXPECT_EQ(ref.shard_fallback_reason, why);
    const ExperimentResult got = run_with_shards(base, 4);
    EXPECT_EQ(got.shard_fallback_reason, why);
    expect_identical(ref, got);
  }
}

TEST(ShardDeterminism, ByteIdenticalAcrossShardCounts) {
  for (int incremental : {1, 0}) {
    SCOPED_TRACE(incremental ? "incremental" : "fullsolve");
    const ExperimentResult whole = run_whole_fleet(decomposable_config(incremental));
    ASSERT_TRUE(whole.completed);
    ASSERT_TRUE(whole.error.empty()) << whole.error;
    ASSERT_EQ(whole.migrations.size(), 8u);
    EXPECT_GT(whole.max_downtime, 0.0);  // the comparison must not be vacuous
    const ExperimentResult ref = run_with_shards(decomposable_config(incremental), 1);
    // 8 singleton components: 8 slices even on one worker.
    EXPECT_EQ(ref.shards_used, 8u);
    EXPECT_TRUE(ref.shard_fallback_reason.empty()) << ref.shard_fallback_reason;
    expect_matches_whole_fleet(whole, ref, /*exact_epochs=*/true,
                               /*exact_work=*/incremental != 0);

    for (std::uint32_t n : {2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(n));
      const ExperimentResult got = run_with_shards(decomposable_config(incremental), n);
      EXPECT_TRUE(got.shard_fallback_reason.empty()) << got.shard_fallback_reason;
      expect_identical(ref, got);
    }
  }
}

TEST(ShardDeterminism, SimultaneousMigrationsStayByteIdentical) {
  // interval = 0: every migration launches at the same instant. One
  // simulator settles the components' churn in shared epochs, so epoch
  // counts differ from it; each component settles in its own simulator
  // whatever the worker count, so across worker counts even they match.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.migration_interval_s = 0.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.shards_used, 8u);
  expect_matches_whole_fleet(run_whole_fleet(cfg), ref, /*exact_epochs=*/false);
  const ExperimentResult got = run_with_shards(cfg, 4);
  expect_identical(ref, got);
}

TEST(ShardDeterminism, ScalePointIsExactAtEveryShardCount) {
  // A scenario-table point whose components stay busy for the whole run:
  // long enough that a simulator holding every component rounds its
  // per-epoch byte advance differently from one holding a single one, so
  // the whole fleet agrees with the split to kWholeFleetRel only. Slices
  // are components at every worker count, so 1, 4 and 8 workers agree to
  // the last bit.
  const char* kLabel = "scale/nonblocking/our-approach/16";
  ExperimentConfig cfg;
  bool found = false;
  for (const ScenarioPoint& p : scenario_points())
    if (p.label() == kLabel) {
      cfg = p.config;
      found = true;
    }
  ASSERT_TRUE(found) << kLabel;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  ASSERT_EQ(ref.migrations.size(), 16u);
  EXPECT_EQ(ref.shards_used, 16u);
  const ExperimentResult whole = run_whole_fleet(cfg);
  ASSERT_TRUE(whole.completed);
  expect_virtual_fields_near(whole, ref, kWholeFleetRel);
  for (std::uint32_t n : {4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const ExperimentResult got = run_with_shards(cfg, n);
    EXPECT_EQ(ref.max_downtime, got.max_downtime);
    expect_identical(ref, got);
  }
}

TEST(ShardDeterminism, SharedDestinationsMergeComponents) {
  // 8 simultaneous migrations round-robin onto 4 destinations: VM k and
  // VM k+4 share a destination NIC, so the partitioner must merge them —
  // 4 components, even when 8 workers were requested. Split, both flows
  // would take the whole NIC, and the match with the whole fleet breaks.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.num_destinations = 4;
  cfg.migration_interval_s = 0.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.shards_used, 4u);
  expect_matches_whole_fleet(run_whole_fleet(cfg), ref, /*exact_epochs=*/false);
  const ExperimentResult got = run_with_shards(cfg, 8);
  expect_identical(ref, got);
}

TEST(ShardDeterminism, UnlimitedUplinksSplitLikeAFlatCore) {
  // Racks of two nodes behind unlimited uplinks constrain nothing, so the
  // fleet still splits per VM. Each slice builds only its own nodes, in
  // switches renumbered densely; every migration crosses racks, and the
  // split must still match the whole fleet.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.cluster.nodes_per_switch = 2;
  cfg.cluster.switch_uplink_Bps = net::kUnlimitedRate;
  cfg.migration_interval_s = 0.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  EXPECT_EQ(ref.shards_used, 8u);
  expect_matches_whole_fleet(run_whole_fleet(cfg), ref, /*exact_epochs=*/false);
  expect_identical(ref, run_with_shards(cfg, 4));
}

TEST(ShardDeterminism, TornPartitionRunsOnFewerShards) {
  // Two VMs, eight requested workers: two components, so two slices on at
  // most two workers, byte-identical to one worker.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.num_vms = 2;
  cfg.num_migrations = 2;
  cfg.num_destinations = 2;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  ASSERT_EQ(ref.migrations.size(), 2u);
  EXPECT_EQ(ref.shards_used, 2u);
  expect_matches_whole_fleet(run_whole_fleet(cfg), ref, /*exact_epochs=*/true);
  const ExperimentResult got = run_with_shards(cfg, 8);
  expect_identical(ref, got);
}

TEST(ShardDeterminism, BroadcastTraceReplayShards) {
  // A generated broadcast trace fans the same op stream to every VM —
  // decomposable, with identical timestamps in every component, which one
  // simulator settles in shared epochs (so epoch counts differ from it).
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
  EXPECT_EQ(ref.shards_used, 4u);
  expect_matches_whole_fleet(run_whole_fleet(cfg), ref, /*exact_epochs=*/false);
  const ExperimentResult got = run_with_shards(cfg, 4);
  expect_identical(ref, got);
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
  expect_identical(ref, got);
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
  expect_identical(ref, got);
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
  expect_identical(ref, got);
}

TEST(ShardFallback, TruncatedRunRerunsSingleShard) {
  // max_sim_time cuts the run mid-migration: where the cut lands depends on
  // the global interleave, which a slice cannot know — the executor's guard
  // must detect the incomplete slice and transparently rerun the whole
  // fleet in one simulator, reproducing its truncation exactly.
  ExperimentConfig cfg = decomposable_config(1);
  cfg.max_sim_time = 3.0;
  const ExperimentResult whole = run_whole_fleet(cfg);
  ASSERT_FALSE(whole.completed);
  const ExperimentResult ref = run_with_shards(cfg, 1);
  EXPECT_EQ(ref.shard_fallback_reason, "runtime guard: max_sim_time truncation");
  expect_identical(whole, ref);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 1u);
  EXPECT_EQ(got.shard_fallback_reason, "runtime guard: max_sim_time truncation");
  EXPECT_FALSE(got.completed);
  expect_identical(ref, got);
}

TEST(Sweep, MatchesLonePointsAtAnyWorkerCount) {
  // One work queue runs every slice of every point: a decomposable fleet
  // (8 slices), a collapsed one (finite fabric), a two-slice fleet whose
  // slices both trip max_sim_time (the lower one names the guard, then the
  // whole fleet reruns) and an invalid config (no task). Each row must
  // equal the point's lone Experiment::run in every field but the wall
  // ones, shard fields and guard reason included, at any worker count.
  std::vector<SweepItem> items(4);
  items[0].config = decomposable_config(1);
  items[1].config = decomposable_config(1);
  items[1].config.cluster.network.fabric_Bps = 8e9;
  items[2].config = decomposable_config(1);
  items[2].config.num_vms = items[2].config.num_migrations = 2;
  items[2].config.num_destinations = 2;
  items[2].config.max_sim_time = 3.0;
  items[3].config = decomposable_config(1);
  items[3].config.cluster.image.chunk_bytes = 0;

  std::vector<ExperimentResult> lone;
  for (const SweepItem& item : items) lone.push_back(Experiment(item.config).run());
  EXPECT_EQ(lone[0].shards_used, 8u);
  EXPECT_EQ(lone[1].shards_used, 1u);
  EXPECT_EQ(lone[1].shard_fallback_reason, "finite fabric aggregate couples all flows");
  EXPECT_EQ(plan_shards(Experiment(items[2].config).config()).shard_count(), 2u);
  EXPECT_EQ(lone[2].shard_fallback_reason, "runtime guard: max_sim_time truncation");
  EXPECT_FALSE(lone[2].completed);
  EXPECT_FALSE(lone[3].error.empty());

  for (unsigned workers : {1u, 4u}) {
    const std::vector<ExperimentResult> swept = run_sweep(items, workers);
    ASSERT_EQ(swept.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " point " + std::to_string(i));
      for (const ResultField& f : result_fields())
        if (!(f.classes & kWall)) EXPECT_EQ(f.get(lone[i]), f.get(swept[i])) << f.name;
      EXPECT_EQ(lone[i].error, swept[i].error);
      expect_virtual_fields_equal(lone[i], swept[i]);
    }
  }
}

}  // namespace
}  // namespace hm::cloud
