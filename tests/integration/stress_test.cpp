// Randomized stress sweeps: many (approach x seed x schedule) combinations
// of concurrent and successive migrations under mixed workloads, checking
// the invariants that must survive any interleaving.
#include <gtest/gtest.h>

#include <tuple>

#include "cloud/experiment.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

ExperimentConfig stress_config(core::Approach a, std::uint64_t seed,
                               std::size_t n_vms, std::size_t n_migrations,
                               double interval) {
  ExperimentConfig cfg;
  cfg.approach = a;
  cfg.seed = seed;
  cfg.cluster.num_nodes = n_vms * 2 + 4;
  cfg.cluster.image = storage::ImageConfig{256 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.cluster.nodes_per_switch = 4;  // exercise uplink constraints too
  cfg.cluster.switch_uplink_Bps = 300e6;
  cfg.vm.memory.ram_bytes = 256 * kMiB;
  cfg.vm.memory.page_bytes = kMiB;
  cfg.vm.memory.base_used_bytes = 32 * kMiB;
  cfg.vm.cache.capacity_bytes = 64 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 32 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 90;
  cfg.asyncwr.file_offset = 64 * kMiB;
  cfg.num_vms = n_vms;
  cfg.num_migrations = n_migrations;
  cfg.num_destinations = n_migrations;
  cfg.first_migration_at = 2.0;
  cfg.migration_interval_s = interval;
  cfg.max_sim_time = 1200.0;
  return cfg;
}

using StressParam = std::tuple<core::Approach, std::uint64_t /*seed*/, double /*interval*/>;

class StressSweep : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressSweep, ConcurrentMigrationsKeepAllInvariants) {
  const auto [approach, seed, interval] = GetParam();
  ExperimentConfig cfg = stress_config(approach, seed, /*n_vms=*/4, /*n_migrations=*/4,
                                       interval);
  ExperimentResult res = Experiment(cfg).run();
  ASSERT_TRUE(res.completed) << res.approach << " seed=" << seed;
  ASSERT_EQ(res.migrations.size(), 4u);
  for (const auto& m : res.migrations) {
    // Protocol ordering holds for every migration.
    EXPECT_LE(m.t_request, m.t_control_transfer);
    EXPECT_LE(m.t_control_transfer, m.t_source_released);
    EXPECT_GE(m.dependency_window(), 0.0);
    EXPECT_LT(m.downtime_s, 2.0);
  }
  // Workload output is complete: nothing lost in flight.
  EXPECT_DOUBLE_EQ(res.bytes_written, 4.0 * 90 * kMiB);
  // Traffic accounting is self-consistent.
  double sum = 0;
  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
    sum += res.traffic_bytes[i];
  EXPECT_NEAR(sum, res.total_traffic, 1.0);
}

std::string stress_name(const ::testing::TestParamInfo<StressParam>& info) {
  std::string n = core::approach_name(std::get<0>(info.param));
  for (char& c : n)
    if (c == '-') c = '_';
  n += "_s" + std::to_string(std::get<1>(info.param));
  n += std::get<2>(info.param) > 0 ? "_staggered" : "_simultaneous";
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, StressSweep,
    ::testing::Combine(::testing::Values(core::Approach::kHybrid,
                                         core::Approach::kPostcopy,
                                         core::Approach::kPrecopy,
                                         core::Approach::kMirror,
                                         core::Approach::kPvfsShared),
                       ::testing::Values(1u, 99u),
                       ::testing::Values(0.0, 3.0)),
    stress_name);

// Datacenter-scale sweep: 96 hypervisor-driven migrations launched in the
// same virtual instant across an oversubscribed two-tier fabric. Wall-clock
// infeasible before the epoch-batched solver and slab event core (each of
// the ~100k events paid an O(flows) solve plus allocation churn); now it
// runs in tens of milliseconds, so it can gate every commit.
TEST(StressScale, NinetySixSimultaneousMigrations) {
  ExperimentConfig cfg = stress_config(core::Approach::kHybrid, 99, /*n_vms=*/96,
                                       /*n_migrations=*/96, /*interval=*/0.0);
  cfg.cluster.num_nodes = 200;
  cfg.cluster.nodes_per_switch = 8;
  cfg.cluster.switch_uplink_Bps = 500e6;
  cfg.max_sim_time = 2400.0;
  ExperimentResult res = Experiment(cfg).run();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.migrations.size(), 96u);
  for (const auto& m : res.migrations) {
    EXPECT_LE(m.t_request, m.t_control_transfer);
    EXPECT_LE(m.t_control_transfer, m.t_source_released);
    EXPECT_GE(m.dependency_window(), 0.0);
    EXPECT_LT(m.downtime_s, 2.0);
  }
  EXPECT_DOUBLE_EQ(res.bytes_written, 96.0 * 90 * kMiB);
  double sum = 0;
  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i) sum += res.traffic_bytes[i];
  EXPECT_NEAR(sum, res.total_traffic, 1.0);
  EXPECT_GT(res.engine_events, 50000u);
  EXPECT_GT(res.engine_flows, 1000u);
}

// Chained migrations of the same VM: migrate it once, then (after release)
// migrate it again to a third node — the destination replica must carry the
// full modified state forward.
TEST(StressChained, SameVmMigratesTwice) {
  ExperimentConfig cfg = stress_config(core::Approach::kHybrid, 7, 1, 1, 0);
  cfg.normalize();
  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster);
  Middleware mw(simulator, cluster, cfg.approach, cfg.approach_cfg);
  vm::VmInstance& vm = mw.deploy(0, cfg.vm);

  bool wl_done = false;
  workloads::AsyncWrWorkload wl(cfg.asyncwr);
  simulator.spawn([](workloads::Workload* w, vm::VmInstance* v, bool* d) -> sim::Task {
    co_await w->run(*v);
    *d = true;
  }(&wl, &vm, &wl_done));

  bool both_done = false;
  simulator.spawn([](Middleware* m, vm::VmInstance* v, bool* d) -> sim::Task {
    co_await m->migrate(*v, 1);
    co_await m->migrate(*v, 2);
    *d = true;
  }(&mw, &vm, &both_done));

  simulator.run_while_pending([&] { return wl_done && both_done; });
  ASSERT_TRUE(both_done);
  EXPECT_EQ(vm.node(), 2u);
  ASSERT_EQ(mw.metrics().migrations().size(), 2u);
  for (const auto& m : mw.metrics().migrations())
    EXPECT_GE(m.t_source_released, m.t_control_transfer);
}

// Migration initiated after the workload already finished: trivially fast,
// still correct (nothing modified since the last flush is lost).
TEST(StressEdge, MigrationOfIdleVmAfterWorkload) {
  ExperimentConfig cfg = stress_config(core::Approach::kHybrid, 11, 1, 1, 0);
  cfg.first_migration_at = 300.0;  // AsyncWR(90 x 1/6s) long done by then
  ExperimentResult res = Experiment(cfg).run();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.migrations.size(), 1u);
  EXPECT_LT(res.migrations[0].migration_time(), 60.0);
}

// Zero-length workload: migrating a VM that never did any I/O.
TEST(StressEdge, MigrationWithNoWorkloadAtAll) {
  ExperimentConfig cfg = stress_config(core::Approach::kHybrid, 13, 1, 1, 0);
  cfg.workload = WorkloadKind::kNone;
  cfg.first_migration_at = 1.0;
  ExperimentResult res = Experiment(cfg).run();
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.migrations.size(), 1u);
  EXPECT_DOUBLE_EQ(res.migrations[0].storage_chunks_pulled, 0.0);
  EXPECT_DOUBLE_EQ(res.migrations[0].storage_chunks_pushed, 0.0);
}

// All approaches obey the dependency-window taxonomy the paper's conclusion
// debates: pull-based schemes have a window, push-based schemes do not.
TEST(StressEdge, DependencyWindowTaxonomy) {
  for (core::Approach a :
       {core::Approach::kPrecopy, core::Approach::kMirror, core::Approach::kPvfsShared}) {
    ExperimentConfig cfg = stress_config(a, 17, 1, 1, 0);
    ExperimentResult res = Experiment(cfg).run();
    ASSERT_EQ(res.migrations.size(), 1u) << core::approach_name(a);
    EXPECT_NEAR(res.migrations[0].dependency_window(), 0.0, 1e-6)
        << core::approach_name(a);
  }
  ExperimentConfig cfg = stress_config(core::Approach::kHybrid, 17, 1, 1, 0);
  ExperimentResult res = Experiment(cfg).run();
  // Under active writes the hybrid scheme defers hot chunks to the pull
  // phase: a non-zero window (the price for not blocking control transfer).
  EXPECT_GT(res.migrations[0].dependency_window(), 0.0);
}

}  // namespace
}  // namespace hm::cloud
