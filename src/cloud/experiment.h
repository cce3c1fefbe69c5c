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
  /// Destination nodes available (sources map onto them round-robin, see
  /// destination_of).
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

  /// Worker threads for this one experiment (parallel in-process): at
  /// most this many, the caller included, drawn from sim::WorkerBudget.
  /// The slices do not depend on it: the deterministic partitioner
  /// (cloud/shard_plan.h) gives every constraint-graph component of the
  /// VM fleet its own small simulator at any value, 1 included, and 1 runs
  /// them in turn on the calling thread. Anything that couples slices —
  /// any fault spec, the auditor, the scheduler, PVFS, CM1/IOR,
  /// non-broadcast replay, trace recording, a finite fabric aggregate or
  /// finite switch uplinks — collapses the plan to one slice. Every
  /// virtual-time field and engine counter of the result (events, settle
  /// epochs, frames served) is byte-identical for any value; only wall_ms
  /// and the frame pool's reuse counters may change.
  std::uint32_t shards = 1;

  std::uint64_t seed = 42;

  /// Ensure the cluster is large enough for sources + destinations and that
  /// approach-specific settings (PVFS) are consistent.
  void normalize();

  /// Migration k moves VM k off node k onto this node: the destinations
  /// follow the VM nodes and take migrations round-robin. Needs a
  /// normalized config (num_destinations >= 1).
  net::NodeId destination_of(std::size_t k) const noexcept {
    return static_cast<net::NodeId>(num_vms + k % num_destinations);
  }

  /// A diagnostic when this config cannot run, else empty: the chunk and
  /// page sizes must be positive, the launch time and interval finite and
  /// non-negative, and the selected workload's file extent must fit inside
  /// the image.
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
  // constraints, those the capacity certificate settled without the walk,
  // and escalations the violation certificate proved without it
  // (FlowNetwork invariant step 3). Read by tests and benches only: they
  // are not kFields entries, so no golden or printout carries them.
  std::uint64_t engine_validation_walks = 0;
  std::uint64_t engine_certified_epochs = 0;
  std::uint64_t engine_proven_escalations = 0;
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
  /// Slices that actually ran (after partitioning and conservative
  /// fallback), at any cfg.shards: the component count, or 1 whenever the
  /// plan collapsed — tests use this to tell a decomposed run from a
  /// vacuous one.
  std::uint32_t shards_used = 1;
  /// Why the run used one slice: the plan's static collapse reason, or
  /// the runtime guard that forced the one-slice rerun. Empty when the run
  /// used the planned slices. Set at any cfg.shards; printed only when a
  /// worker count was asked for (cfg.shards != 1).
  std::string shard_fallback_reason;
  /// Host wall-clock: the event loop of a one-slice run, or for N slices
  /// the whole run of all of them (construction, event loops and merge),
  /// at any cfg.shards.
  double wall_ms = 0;

  double traffic(net::TrafficClass c) const {
    return traffic_bytes[static_cast<std::size_t>(c)];
  }
};

struct ShardPlan;  // cloud/shard_plan.h

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)) { cfg_.normalize(); }

  /// Run the simulation and collect metrics: plan_shards, one simulator per
  /// slice (on up to cfg.shards threads), runtime guards, then one
  /// deterministic merge. A decomposable scenario has one slice per
  /// component at any cfg.shards, so its result does not depend on the
  /// worker count.
  ExperimentResult run();
  /// run() on a given plan instead of plan_shards(config()): slices,
  /// guards and merge alike. The plan must list every VM exactly once;
  /// one_slice_plan() runs the whole fleet in one simulator, the reference
  /// a decomposed run must reproduce.
  ExperimentResult run(const ShardPlan& plan);

  const ExperimentConfig& config() const noexcept { return cfg_; }

 private:
  /// What one slice hands the merge (defined in experiment.cpp).
  struct Slice;

  /// One simulator over the given global VM ids (ascending). run() sends
  /// every plan through here, so a collapsed plan is just the one slice
  /// that lists every VM. A slice of part of the fleet builds only the
  /// nodes its VMs touch. Thread-safe: touches only locals and the const
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
