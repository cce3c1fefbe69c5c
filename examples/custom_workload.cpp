// Shows how to implement a custom Workload against the public API and run
// it under live migration: a key-value-store-like workload doing random
// reads and writes over a working set, with periodic fsync (checkpoint).
#include <iostream>

#include "cloud/middleware.h"
#include "cloud/report.h"
#include "sim/random.h"
#include "workloads/workload.h"

using namespace hm;

namespace {

class KvStoreWorkload final : public workloads::Workload {
 public:
  struct Config {
    int ops = 4000;
    double read_fraction = 0.5;
    std::uint64_t value_bytes = 256 * storage::kKiB;
    std::uint64_t region_offset = 1 * storage::kGiB;
    std::uint64_t region_bytes = 512 * storage::kMiB;
    int fsync_every = 500;
  };

  explicit KvStoreWorkload(Config cfg, sim::Rng rng) : cfg_(cfg), rng_(rng) {}
  const char* name() const noexcept override { return "kvstore"; }

  sim::Task run(vm::VmInstance& vm) override {
    const std::uint64_t slots = cfg_.region_bytes / cfg_.value_bytes;
    for (int i = 0; i < cfg_.ops; ++i) {
      const std::uint64_t off = cfg_.region_offset + rng_.uniform(slots) * cfg_.value_bytes;
      if (rng_.bernoulli(cfg_.read_fraction)) {
        co_await vm.file_read(off, cfg_.value_bytes);
      } else {
        co_await vm.file_write(off, cfg_.value_bytes);
      }
      if ((i + 1) % cfg_.fsync_every == 0) co_await vm.fsync();  // checkpoint
      co_await vm.compute(0.002);  // request processing
    }
    done_at_ = vm.cluster().sim().now();
  }

  double done_at() const noexcept { return done_at_; }

 private:
  Config cfg_;
  sim::Rng rng_;
  double done_at_ = 0;
};

sim::Task drive(KvStoreWorkload* wl, vm::VmInstance* vm, bool* done) {
  co_await wl->run(*vm);
  *done = true;
}

sim::Task migrate(cloud::Middleware* mw, vm::VmInstance* vm, net::NodeId dst,
                  bool* done) {
  co_await mw->migrate(*vm, dst);
  *done = true;
}

}  // namespace

int main() {
  sim::Simulator simulator;
  vm::ClusterConfig ccfg;
  ccfg.num_nodes = 8;
  vm::Cluster cluster(simulator, ccfg);

  cloud::ApproachConfig acfg;
  acfg.hybrid.threshold = 3;
  cloud::Middleware mw(simulator, cluster, core::Approach::kHybrid, acfg);

  vm::VmInstance& vm = mw.deploy(/*node=*/0);
  KvStoreWorkload wl({}, sim::Rng(7).fork("kvstore"));

  bool wl_done = false, mig_done = false;
  simulator.spawn(drive(&wl, &vm, &wl_done));
  // Migrate mid-run, while the store is hot. The launch context sits behind
  // one pointer so the timer callback's capture fits in two words.
  struct Launch {
    sim::Simulator& simulator;
    cloud::Middleware& mw;
    vm::VmInstance& vm;
    bool* mig_done;
    void go() { simulator.spawn(migrate(&mw, &vm, 1, mig_done)); }
  } launch{simulator, mw, vm, &mig_done};
  simulator.schedule(5.0, [&launch] { launch.go(); });

  std::cout << "Running a random-R/W key-value workload; migrating at t=5s...\n";
  simulator.run_while_pending([&] { return wl_done && mig_done; });

  const auto& m = mw.metrics().migrations().at(0);
  std::cout << "\nworkload finished at:   " << cloud::fmt_seconds(wl.done_at())
            << "\nmigration time:         " << cloud::fmt_seconds(m.migration_time())
            << "\ndowntime:               " << cloud::fmt_double(m.downtime_s * 1e3, 1)
            << " ms"
            << "\nchunks pushed/pulled:   " << m.storage_chunks_pushed << " / "
            << m.storage_chunks_pulled
            << "\nread throughput:        " << cloud::fmt_bytes(vm.io_stats().read_Bps())
            << "/s"
            << "\nwrite throughput:       " << cloud::fmt_bytes(vm.io_stats().write_Bps())
            << "/s\n";
  std::cout << "\nImplementing a workload = subclass workloads::Workload and drive the\n"
               "VmInstance file/compute API from a coroutine. See src/workloads/ for\n"
               "the paper's IOR, AsyncWR and CM1 models.\n";
  return 0;
}
