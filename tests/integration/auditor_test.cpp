// Watchdog/invariant auditor: the auditor must catch an artificially stuck
// migration (liveness) and a byte-conservation violation, and must stay
// silent on healthy runs (covered by the churn tests, which run audited).
#include <gtest/gtest.h>

#include <string>

#include "cloud/auditor.h"
#include "cloud/experiment.h"
#include "cloud/fault_injector.h"
#include "workloads/asyncwr.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.image = storage::ImageConfig{256 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.vm.memory.ram_bytes = 256 * kMiB;
  cfg.vm.memory.page_bytes = kMiB;
  cfg.vm.memory.base_used_bytes = 64 * kMiB;
  cfg.normalize();
  return cfg;
}

/// Kill the destination mid-transfer with NO injector wired: the retry loop
/// waits forever for a node that never reboots, and with no fault excuse on
/// file the watchdog must flag the stall as a liveness violation.
TEST(Auditor, CatchesArtificiallyStuckMigration) {
  ExperimentConfig cfg = small_config();
  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster);
  Middleware mw(simulator, cluster, cfg.approach, cfg.approach_cfg);
  Auditor auditor(simulator, mw, /*check_interval_s=*/1.0,
                  /*progress_deadline_s=*/5.0);
  mw.set_auditor(&auditor);
  auditor.arm();
  vm::VmInstance& vm = mw.deploy(0, cfg.vm);

  bool done = false;
  simulator.spawn([](Middleware* m, vm::VmInstance* v, bool* d) -> sim::Task {
    co_await m->migrate(*v, 1);
    *d = true;
  }(&mw, &vm, &done));

  // Crash the destination 10 ms in — before control can have moved — and
  // never bring it back. This mimics the injector's crash path without
  // registering any excuse the auditor could see.
  simulator.schedule(0.01, [&cluster, &mw] {
    cluster.network().set_node_up(1, false);
    mw.on_node_down(1);
  });

  simulator.run_while_pending(
      [&] { return !auditor.violations().empty() || simulator.now() > 120.0; });
  EXPECT_FALSE(done);
  EXPECT_GT(auditor.checks_run(), 0u);
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_NE(auditor.violations()[0].find("liveness"), std::string::npos)
      << auditor.violations()[0];
}

/// With an injector wired, the same dead-destination window is an open fault
/// excuse: the watchdog must NOT flag the stall while the crash hold is open.
TEST(Auditor, OpenFaultWindowExcusesTheStall) {
  ExperimentConfig cfg = small_config();
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("dst-crash@0.01+200", &cfg.faults, &err)) << err;
  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster);
  Middleware mw(simulator, cluster, cfg.approach, cfg.approach_cfg);
  FaultInjector injector(simulator, cluster, mw, cfg);
  Auditor auditor(simulator, mw, 1.0, 5.0);
  auditor.set_injector(&injector);
  mw.set_auditor(&auditor);
  injector.arm();
  auditor.arm();
  vm::VmInstance& vm = mw.deploy(0, cfg.vm);

  bool done = false;
  simulator.spawn([](Middleware* m, vm::VmInstance* v, bool* d) -> sim::Task {
    co_await m->migrate(*v, 1);
    *d = true;
  }(&mw, &vm, &done));

  simulator.run_while_pending([&] { return simulator.now() > 60.0; });
  EXPECT_FALSE(done);  // destination still down at t=60
  EXPECT_GT(auditor.checks_run(), 0u);
  EXPECT_TRUE(auditor.violations().empty())
      << "unexpected: " << auditor.violations()[0];
}

/// Conservation: a salvaged replica whose valid bitmap claims a chunk the
/// store does not hold is a byte-conservation violation.
TEST(Auditor, CatchesAdoptionConservationViolation) {
  ExperimentConfig cfg = small_config();
  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster);
  Middleware mw(simulator, cluster, cfg.approach, cfg.approach_cfg);
  Auditor auditor(simulator, mw, 1.0, 5.0);

  storage::Disk disk(simulator, cfg.cluster.disk);
  storage::ChunkStore store(simulator, disk, cfg.cluster.image);
  util::DirtyBitmap valid(store.num_chunks());
  valid.set(3);  // claims chunk 3 was salvaged — but the store is empty
  auditor.check_adoption(store, valid, /*vm_id=*/0);

  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_NE(auditor.violations()[0].find("conservation"), std::string::npos)
      << auditor.violations()[0];

  // A truthful bitmap passes.
  util::DirtyBitmap honest(store.num_chunks());
  auditor.check_adoption(store, honest, /*vm_id=*/0);
  EXPECT_EQ(auditor.violations().size(), 1u);
}

/// End-to-end: an audited churn experiment that completes cleanly reports
/// checks but zero violations (regression guard against false positives
/// from salvage/adoption cycles).
TEST(Auditor, CleanChurnRunHasNoViolations) {
  ExperimentConfig cfg = small_config();
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "churn:crash-mtbf=18,crash-mttr=3,factor=0.4,from=1,until=30",
      &cfg.faults, &err))
      << err;
  cfg.audit = true;
  cfg.workload = WorkloadKind::kNone;
  cfg.first_migration_at = 2.0;
  cfg.max_sim_time = 600.0;
  ExperimentResult res = Experiment(std::move(cfg)).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GT(res.audit_checks, 0u);
  EXPECT_TRUE(res.audit_violations.empty())
      << "first violation: " << res.audit_violations.front();
}

}  // namespace
}  // namespace hm::cloud
