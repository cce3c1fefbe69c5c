// Shared configuration for the figure benches: the paper's full-scale setup
// (Section 5.1) — graphene cluster nodes with ~117.5 MB/s GbE, ~8 GB/s
// switch fabric, 55 MB/s local disks, 4 GB disk images striped in 256 KB
// chunks, VMs with 4 GB RAM, QEMU pre-copy memory migration capped at 1 Gbps.
#pragma once

#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "cloud/experiment.h"
#include "cloud/report.h"
#include "cloud/sweep.h"

namespace hm::bench {

using cloud::ExperimentConfig;
using cloud::ExperimentResult;
using cloud::WorkloadKind;
using storage::kGiB;
using storage::kKiB;
using storage::kMiB;

inline const std::vector<core::Approach> kAllApproaches = {
    core::Approach::kHybrid, core::Approach::kMirror, core::Approach::kPostcopy,
    core::Approach::kPrecopy, core::Approach::kPvfsShared};

/// Paper testbed defaults (Section 5.1).
inline ExperimentConfig paper_config(core::Approach a) {
  ExperimentConfig cfg;
  cfg.approach = a;
  cfg.cluster.num_nodes = 40;  // enough nodes for sources+destinations+striping
  cfg.cluster.nic_Bps = 117.5e6;
  cfg.cluster.network.fabric_Bps = 8.0e9;
  cfg.cluster.network.latency_s = 1e-4;
  // graphene-style edge switches with 10 GbE uplinks: the oversubscription
  // is what makes 30 simultaneous pre-copy migrations contend (Figure 4).
  cfg.cluster.nodes_per_switch = 20;
  cfg.cluster.switch_uplink_Bps = 1.25e9;
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.5e-3};
  cfg.cluster.image = storage::ImageConfig{4 * kGiB, 256 * static_cast<std::uint32_t>(kKiB)};
  cfg.vm.memory.ram_bytes = 4 * kGiB;
  cfg.vm.memory.page_bytes = 256 * kKiB;
  cfg.vm.memory.base_used_bytes = 512 * kMiB;
  cfg.vm.cache.capacity_bytes = 3 * kGiB;
  cfg.vm.cache.dirty_limit_bytes = 800 * kMiB;
  cfg.vm.cache.write_Bps = 266e6;   // paper's observed IOR write ceiling
  cfg.vm.cache.read_Bps = 1.0e9;    // paper's observed IOR read ceiling
  cfg.approach_cfg.hypervisor.migration_speed_Bps = 125e6;  // "1G" QEMU cap
  cfg.first_migration_at = 100.0;   // the paper's warm-up delay
  cfg.max_sim_time = 7200.0;
  return cfg;
}

inline ExperimentConfig ior_config(core::Approach a) {
  ExperimentConfig cfg = paper_config(a);
  cfg.workload = WorkloadKind::kIor;
  // The paper runs 10 iterations; on its testbed these outlast the t=100 s
  // migration point. Our sustained write-back path is slower per iteration,
  // so we run 30 iterations to keep full I/O pressure on the migration
  // window, matching the paper's intent.
  cfg.ior.iterations = 30;
  cfg.ior.file_bytes = 1 * kGiB;
  cfg.ior.block_bytes = 256 * kKiB;
  cfg.ior.file_offset = 1 * kGiB;
  return cfg;
}

inline ExperimentConfig asyncwr_config(core::Approach a) {
  ExperimentConfig cfg = paper_config(a);
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 1800;  // 1800 MB total (Figure 4 setup)
  cfg.asyncwr.bytes_per_iter = 1 * kMiB;
  cfg.asyncwr.iter_compute_s = 1.0 / 6.0;  // ~6 MB/s pressure
  cfg.asyncwr.file_offset = 1 * kGiB;
  return cfg;
}

inline ExperimentConfig cm1_config(core::Approach a) {
  ExperimentConfig cfg = paper_config(a);
  cfg.workload = WorkloadKind::kCm1;
  cfg.cm1 = workloads::Cm1Config{};  // 8x8 ranks, ~40 s per 200 MB output
  cfg.cluster.num_nodes = 80;        // 64 sources + destinations + headroom
  cfg.vm.compute_slice_s = 0.25;
  return cfg;
}

/// The scale sweeps' lean fleet: paper network parameters with a 1 GiB
/// image and 1 GiB of RAM per VM, so a 64-way point stays a seconds-scale
/// run (the sweeps stress the engine, not the figures' absolute migration
/// times), on the oversubscribed graphene-style core or a non-blocking
/// full-bisection one.
inline ExperimentConfig lean_fleet_config(bool nonblocking) {
  ExperimentConfig cfg = asyncwr_config(core::Approach::kHybrid);
  cfg.cluster.image = storage::ImageConfig{1 * kGiB, 256 * static_cast<std::uint32_t>(kKiB)};
  cfg.vm.memory.ram_bytes = 1 * kGiB;
  cfg.vm.memory.base_used_bytes = 128 * kMiB;
  cfg.vm.cache.capacity_bytes = 768 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 256 * kMiB;
  cfg.asyncwr.iterations = 300;
  cfg.asyncwr.file_offset = 256 * kMiB;  // must stay inside the 1 GiB image
  if (nonblocking) {
    cfg.cluster.network.fabric_Bps = net::kUnlimitedRate;
    cfg.cluster.nodes_per_switch = 0;  // flat full-bisection core
  } else {
    cfg.cluster.nodes_per_switch = 20;
    cfg.cluster.switch_uplink_Bps = 1.25e9;
  }
  return cfg;
}

/// Remove every `--full-solve` from argv and report whether there was one.
/// It selects the full re-solve regime (FlowNetworkConfig::incremental =
/// false), which must reproduce the incremental timeline.
inline bool take_full_solve(int& argc, char** argv) {
  bool found = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full-solve") == 0) found = true;
    else argv[kept++] = argv[i];
  }
  argc = kept;
  return found;
}

/// Print a sweep point's error and audit violations on stderr; true if it
/// has any. The sweep keeps going (the JSON stays well-formed) and its exit
/// code reports the failure.
inline bool report_failures(const char* prog, std::size_t n, const ExperimentResult& r) {
  if (!r.error.empty()) std::cerr << prog << ": n=" << n << ": " << r.error << "\n";
  for (const std::string& v : r.audit_violations)
    std::cerr << prog << ": n=" << n << " AUDIT VIOLATION: " << v << "\n";
  return !r.error.empty() || !r.audit_violations.empty();
}

inline double storage_traffic(const ExperimentResult& r) {
  return r.traffic(net::TrafficClass::kStoragePush) +
         r.traffic(net::TrafficClass::kStoragePull);
}

/// Performance degradation vs a migration-free run: fraction of the
/// computational potential lost (Figure 4(c)'s metric). Both runs execute
/// the same total work, so lost potential shows up as a longer runtime.
inline double degradation(const ExperimentResult& with_mig,
                          const ExperimentResult& baseline) {
  if (with_mig.app_execution_time <= 0) return 0;
  return 1.0 - baseline.app_execution_time / with_mig.app_execution_time;
}

}  // namespace hm::bench
