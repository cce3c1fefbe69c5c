// Experiment harness: wires a cluster, VMs, workloads and a migration
// schedule into one deterministic simulation and extracts the paper's
// metrics (migration time, network traffic by class, in-VM throughput,
// computational potential, application runtime).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/middleware.h"
#include "cloud/recovery.h"
#include "cloud/scheduler.h"
#include "core/metrics.h"
#include "sim/fault_plan.h"
#include "workloads/asyncwr.h"
#include "workloads/cm1.h"
#include "workloads/ior.h"
#include "workloads/trace_gen.h"

namespace hm::cloud {

enum class WorkloadKind : std::uint8_t { kNone, kIor, kAsyncWr, kCm1, kTrace };
const char* workload_name(WorkloadKind k) noexcept;

struct ExperimentConfig {
  core::Approach approach = core::Approach::kHybrid;
  vm::ClusterConfig cluster{};
  vm::VmConfig vm{};
  ApproachConfig approach_cfg{};

  WorkloadKind workload = WorkloadKind::kIor;
  workloads::IorConfig ior{};
  workloads::AsyncWrConfig asyncwr{};
  workloads::Cm1Config cm1{};
  /// kTrace source: in-memory data, a trace file (replayed by one streaming
  /// reader with bounded memory), or a generator spec (seeded from `seed`).
  workloads::TraceSourceConfig trace{};

  /// Attach this recorder to every deployed VM: the run's workload-API call
  /// stream becomes a replayable trace (caller owns the recorder and reads
  /// its data() after run()). Recording is passive — the timeline is
  /// unchanged.
  workloads::TraceRecorder* trace_recorder = nullptr;

  /// Number of source VMs (CM1 overrides this with its rank count).
  std::size_t num_vms = 1;
  /// Destination nodes available (sources map onto them round-robin).
  std::size_t num_destinations = 1;
  /// How many of the sources get migrated.
  std::size_t num_migrations = 1;
  double first_migration_at = 100.0;
  /// Delay between successive migration initiations (0 = simultaneous).
  double migration_interval_s = 0.0;
  bool perform_migrations = true;

  /// Continuous-arrival scheduler (cloud/scheduler.h). When enabled it
  /// replaces the fixed launch schedule above: an open arrival stream feeds
  /// a priority admission queue with bounded concurrency, placement under
  /// capacity/anti-affinity constraints, preemption and fault retry. The
  /// scheduler spans the whole fleet, so it collapses the shard plan.
  SchedulerConfig scheduler{};

  /// Hard stop (safety against non-converging runs); 0 = run to completion.
  double max_sim_time = 0;

  /// Fault-injection axis: scripted, seeded ("rand:") or continuous
  /// ("churn:") fault process replayed through the simulator (see
  /// sim/fault_plan.h for the --faults grammar). Random draws fork the
  /// experiment seed, so fault runs stay deterministic.
  sim::FaultSpec faults{};

  /// Virtual-time watchdog/invariant auditor (cloud/auditor.h): liveness
  /// (no migration stalls past the progress deadline without an open fault
  /// excuse) and chunk conservation (adoption + completion accounting).
  /// The auditor's periodic tick adds simulator events, so audited runs
  /// gate only against goldens generated with audit on. Collapses the
  /// shard plan (the auditor must observe every migration).
  bool audit = false;

  /// Simulator shards for this one experiment (parallel in-process). The
  /// deterministic partitioner (cloud/shard_plan.h) decomposes the VM fleet
  /// into constraint-graph components and runs them on worker threads drawn
  /// from sim::WorkerBudget. Anything that couples slices — a finite fabric
  /// aggregate or finite switch uplinks, CM1/IOR, faults, PVFS, trace
  /// recording, non-broadcast replay — conservatively collapses the plan to
  /// one shard. Every virtual-time field of the result is byte-identical
  /// for any shard count — only wall_ms may change. kShardsAuto picks
  /// min(component count, workers available) at plan time.
  std::uint32_t shards = 1;
  static constexpr std::uint32_t kShardsAuto = 0xffffffffu;

  std::uint64_t seed = 42;

  /// Ensure the cluster is large enough for sources + destinations and that
  /// approach-specific settings (PVFS) are consistent.
  void normalize();

  /// A diagnostic when this config cannot run, else empty: the chunk and
  /// page sizes must be positive and the selected workload's file extent
  /// must fit inside the image.
  std::string validate() const;
};

struct ExperimentResult {
  std::string approach;
  std::string workload;
  double sim_duration = 0;
  bool completed = true;  // false if the max_sim_time guard hit
  /// Non-empty on a rejected config (validate()) or a workload failure
  /// (malformed trace, record/write error); such runs also clear `completed`.
  std::string error;

  std::vector<core::MigrationRecord> migrations;
  double total_migration_time = 0;
  double avg_migration_time = 0;
  double max_downtime = 0;

  /// Fault-axis recovery telemetry: availability counters, per-migration
  /// recovery aggregates and p50/p99/p999 percentiles (cloud/recovery.h).
  /// All zero when no faults are configured.
  RecoveryStats recovery{};

  /// Scheduler telemetry (queue depths, preemptions, queueing-delay
  /// percentiles) — all zero unless cfg.scheduler is enabled.
  SchedulerStats scheduler{};

  /// Invariant-auditor telemetry (cfg.audit): checks executed and the
  /// violations found — an audited run with a non-empty list is a failure.
  std::uint64_t audit_checks = 0;
  std::vector<std::string> audit_violations;

  std::array<double, net::kNumTrafficClasses> traffic_bytes{};
  double total_traffic = 0;
  /// Total traffic minus application communication (Figure 5(b) subtracts
  /// CM1's own halo exchange traffic).
  double migration_traffic = 0;

  // Aggregated over all VMs.
  double bytes_written = 0, bytes_read = 0;
  double write_Bps = 0, read_Bps = 0;
  double cpu_seconds_total = 0;
  double app_execution_time = 0;  // workload span (CM1: whole application)

  // Engine throughput (the perf trajectory the scale sweeps track).
  std::uint64_t engine_events = 0;      // simulator events processed
  std::uint64_t engine_flows = 0;       // network flows started
  std::uint64_t engine_recomputes = 0;  // max-min solve epochs
  // Incremental-solver work counters (cumulative; divide by
  // engine_recomputes for per-epoch figures).
  std::uint64_t engine_components = 0;   // component water-fills run
  std::uint64_t engine_flows_resolved = 0;  // flow rate re-derivations
  std::uint64_t engine_escalations = 0;  // epochs forced to a global solve
  // Solving epochs that walked every live flow against the shared
  // constraints, and those the capacity certificate settled without the
  // walk (FlowNetwork invariant step 3). Read by tests and benches only:
  // they are not kFields entries, so no golden or printout carries them.
  std::uint64_t engine_validation_walks = 0;
  std::uint64_t engine_certified_epochs = 0;
  // Sessions of finished or abandoned migrations that still hold their
  // per-chunk transfer state: non-zero means the release path leaks. Read
  // by tests only, like the two counters above.
  std::uint64_t sessions_retaining_state = 0;
  // Allocator telemetry from the coroutine frame pool (this run's deltas):
  // frames served, frames recycled from a free list, and system heap
  // allocations (slab growth + oversize fallback). A steady-state run should
  // show engine_frame_heap_allocs ~ 0 beyond warm-up. Only engine_frames is
  // a result field: the other two follow the pool's 64-byte size classes,
  // so a frame that grows by a few bytes moves them with the same timeline
  // (hm_alloc_tests and perfbench read them directly).
  std::uint64_t engine_frames = 0;
  std::uint64_t engine_frames_reused = 0;
  std::uint64_t engine_frame_heap_allocs = 0;
  /// Shards that actually ran (after partitioning and conservative
  /// fallback). 1 whenever the plan collapsed — tests use this to tell a
  /// genuinely parallel run from a vacuous one.
  std::uint32_t shards_used = 1;
  /// Why shards_used fell short of the requested shard count: the plan's
  /// static collapse reason, or the runtime guard that forced the
  /// one-slice rerun. Empty when the run used the planned shards.
  std::string shard_fallback_reason;
  /// Host wall-clock: the event loop of a one-slice run, or the whole
  /// sharded run (slices and merge) for N slices.
  double wall_ms = 0;

  double traffic(net::TrafficClass c) const {
    return traffic_bytes[static_cast<std::size_t>(c)];
  }
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)) { cfg_.normalize(); }

  /// Run the simulation and collect metrics: plan_shards, one simulator per
  /// slice (in parallel when there are several), runtime guards, then one
  /// deterministic merge. With cfg.shards > 1 and a decomposable scenario
  /// the plan has several slices; the virtual-time fields are
  /// byte-identical to the one-slice run either way.
  ExperimentResult run();

  const ExperimentConfig& config() const noexcept { return cfg_; }

 private:
  /// What one slice hands the merge (defined in experiment.cpp).
  struct Slice;

  /// One simulator over the given global VM ids (ascending). run() sends
  /// every plan through here, so a collapsed plan is just the one slice
  /// that lists every VM. Thread-safe: touches only locals and the const
  /// config.
  Slice run_slice(const std::vector<std::uint32_t>& owned) const;
  /// The one deterministic merge: every aggregate of the result, from one
  /// slice or N.
  ExperimentResult merge_parts(std::vector<Slice>& parts) const;

  ExperimentConfig cfg_;
};

/// Convenience: run the identical scenario without migrations (baseline for
/// normalized throughput / performance degradation figures).
ExperimentResult run_baseline(ExperimentConfig cfg);

}  // namespace hm::cloud
