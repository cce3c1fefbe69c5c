#include "vm/hypervisor.h"

#include <gtest/gtest.h>

#include "core/hybrid_migrator.h"
#include "core/metrics.h"
#include "sim/simulator.h"

namespace hm::vm {
namespace {

using storage::kMiB;

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.nic_Bps = 100e6;
  cfg.image = storage::ImageConfig{256 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.disk = storage::DiskConfig{55e6, 0.0};
  return cfg;
}

VmConfig small_vm() {
  VmConfig cfg;
  cfg.memory.ram_bytes = 256 * kMiB;
  cfg.memory.page_bytes = kMiB;
  cfg.memory.base_used_bytes = 50 * kMiB;
  cfg.cache.capacity_bytes = 64 * kMiB;
  cfg.cache.dirty_limit_bytes = 16 * kMiB;
  cfg.cache.write_Bps = 100e6;
  return cfg;
}

struct HvFixture {
  sim::Simulator s;
  Cluster cluster;
  core::MigrationManager mgr;
  VmInstance vm;
  core::Metrics metrics;
  HvFixture()
      : cluster(s, small_cluster()),
        mgr(s, cluster, 0, 0),
        vm(s, cluster, 0, 0, mgr, small_vm()) {}

  core::MigrationRecord& migrate_now(HypervisorConfig hv = {},
                                     core::HybridConfig hc = {}) {
    auto& rec = metrics.new_migration(0);
    rec.t_request = s.now();
    auto* session = new core::HybridSession(s, cluster, &mgr, /*dst=*/1, rec, hc);
    session_.reset(session);
    mgr.begin_migration(session);
    session->start();
    s.spawn([](sim::Simulator* sp, Cluster* cl, VmInstance* v,
               core::StorageMigrationSession* ss, HypervisorConfig cfg,
               core::MigrationRecord* r, bool* done) -> sim::Task {
      co_await Hypervisor::live_migrate(*sp, cl->network(), *v, 1, *ss, cfg, *r);
      *done = true;
    }(&s, &cluster, &vm, session, hv, &rec, &done_));
    return rec;
  }

  std::unique_ptr<core::StorageMigrationSession> session_;
  bool done_ = false;
};

TEST(Hypervisor, IdleVmMigratesQuickly) {
  HvFixture f;
  auto& rec = f.migrate_now();
  f.s.run();
  ASSERT_TRUE(f.done_);
  // 50 MiB used memory at 100 MB/s -> roughly half a second.
  EXPECT_GT(rec.migration_time(), 0.4);
  EXPECT_LT(rec.migration_time(), 2.0);
  EXPECT_GE(rec.memory_rounds, 1);
}

TEST(Hypervisor, DowntimeStaysNearTarget) {
  HvFixture f;
  auto& rec = f.migrate_now();
  f.s.run();
  ASSERT_TRUE(f.done_);
  // Idle guest: the stop-and-copy round only carries the device state plus
  // at most kDowntimeTargetS (30 ms) worth of dirty memory.
  ASSERT_EQ(Hypervisor::kDowntimeTargetS, 0.03);
  EXPECT_LT(rec.downtime_s, 0.1);
  EXPECT_GT(rec.downtime_s, 0.0);
}

TEST(Hypervisor, ControlTransferMovesVmToDestination) {
  HvFixture f;
  f.migrate_now();
  f.s.run();
  EXPECT_EQ(f.vm.node(), 1u);
  EXPECT_EQ(f.mgr.node(), 1u);
  EXPECT_TRUE(f.vm.running());
}

TEST(Hypervisor, MemoryBytesAtLeastUsedMemory) {
  HvFixture f;
  auto& rec = f.migrate_now();
  f.s.run();
  EXPECT_GE(rec.memory_bytes_sent, 50.0 * kMiB);
  EXPECT_DOUBLE_EQ(
      f.cluster.network().traffic_bytes(net::TrafficClass::kMemory),
      rec.memory_bytes_sent);
}

sim::Task dirty_forever(VmInstance* vm) {
  for (;;) co_await vm->compute(0.1, /*dirty_Bps=*/150e6, /*ws_bytes=*/128 * kMiB);
}

TEST(Hypervisor, NonConvergingMemoryForcedStopAfterMaxRounds) {
  HvFixture f;
  // Dirty faster than the NIC can ship: pre-copy cannot converge.
  f.s.spawn(dirty_forever(&f.vm));
  auto& rec = f.migrate_now();
  const bool finished = f.s.run_while_pending([&] { return f.done_; });
  ASSERT_TRUE(finished);
  EXPECT_EQ(rec.memory_rounds, Hypervisor::kMaxRounds);
  EXPECT_EQ(Hypervisor::kMaxRounds, 100);
  // Forced stop ships a large residue: downtime blows past the target —
  // exactly the pathology the paper describes for pre-copy under pressure.
  EXPECT_GT(rec.downtime_s, 0.1);
}

TEST(Hypervisor, MigrationSpeedCapSlowsTransfer) {
  HvFixture f;
  HypervisorConfig hv;
  hv.migration_speed_Bps = 10e6;
  auto& rec = f.migrate_now(hv);
  f.s.run_while_pending([&] { return f.done_; });
  // 50 MiB at 10 MB/s >= 5 seconds.
  EXPECT_GT(rec.migration_time(), 5.0);
}

TEST(Hypervisor, RecordTimestampsAreOrdered) {
  HvFixture f;
  auto& rec = f.migrate_now();
  f.s.run();
  EXPECT_LE(rec.t_request, rec.t_control_transfer);
  EXPECT_LE(rec.t_control_transfer, rec.t_source_released);
  EXPECT_GT(rec.downtime_s, 0.0);
}

}  // namespace
}  // namespace hm::vm
