#include "cloud/experiment.h"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <chrono>
#include <memory>

#include "cloud/auditor.h"
#include "cloud/executor.h"
#include "cloud/fault_injector.h"
#include "cloud/shard_plan.h"
#include "sim/frame_pool.h"

namespace hm::cloud {

const char* workload_name(WorkloadKind k) noexcept {
  switch (k) {
    case WorkloadKind::kNone: return "none";
    case WorkloadKind::kIor: return "IOR";
    case WorkloadKind::kAsyncWr: return "AsyncWR";
    case WorkloadKind::kCm1: return "CM1";
    case WorkloadKind::kTrace: return "trace";
  }
  return "?";
}

void ExperimentConfig::normalize() {
  if (workload == WorkloadKind::kCm1) num_vms = static_cast<std::size_t>(cm1.ranks());
  num_migrations = std::min(num_migrations, num_vms);
  if (num_destinations == 0) num_destinations = 1;
  if (shards == 0) shards = 1;
  const std::size_t needed = num_vms + num_destinations;
  if (cluster.num_nodes < needed) cluster.num_nodes = needed;
  cluster.enable_pvfs = (approach == core::Approach::kPvfsShared);
  cluster.seed = seed;
}

std::string ExperimentConfig::validate() const {
  // Chunk and page counts divide by these granularities.
  if (cluster.image.chunk_bytes == 0) return "cluster.image.chunk_bytes must be positive";
  if (vm.memory.page_bytes == 0) return "vm.memory.page_bytes must be positive";
  // Migration k launches at first_migration_at + k x migration_interval_s.
  const auto finite_non_negative = [](double v) { return v >= 0 && v <= DBL_MAX; };
  if (!finite_non_negative(first_migration_at))
    return "first_migration_at must be a finite number >= 0, got " +
           std::to_string(first_migration_at);
  if (!finite_non_negative(migration_interval_s))
    return "migration_interval_s must be a finite number >= 0, got " +
           std::to_string(migration_interval_s);
  // The selected workload writes file_offset + count x unit bytes.
  struct Extent { std::uint64_t offset = 0, count = 0, unit = 0; } e;
  const auto n = [](int v) { return static_cast<std::uint64_t>(std::max(v, 0)); };
  if (workload == WorkloadKind::kIor) {
    e = {ior.file_offset, 1, ior.file_bytes};
  } else if (workload == WorkloadKind::kAsyncWr) {
    e = {asyncwr.file_offset, n(asyncwr.iterations), asyncwr.bytes_per_iter};
  } else if (workload == WorkloadKind::kCm1) {
    // Dumps rotate over dump_slots slots (0 = every output keeps its own).
    const int slots = cm1.dump_slots > 0 ? std::min(cm1.dump_slots, cm1.num_outputs)
                                         : cm1.num_outputs;
    e = {cm1.file_offset, n(slots), cm1.output_bytes};
  }
  const std::uint64_t image = cluster.image.image_bytes;
  // offset + count * unit <= image, without overflowing.
  if (e.offset <= image && (e.unit == 0 || e.count <= (image - e.offset) / e.unit)) return {};
  return std::string(workload_name(workload)) + ": file_offset " + std::to_string(e.offset) +
         " + " + std::to_string(e.count) + " x " + std::to_string(e.unit) +
         " bytes runs past the " + std::to_string(image) + "-byte image";
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

sim::Task run_and_signal(workloads::Workload* w, vm::VmInstance* v, sim::WaitGroup* wg) {
  co_await w->run(*v);
  wg->done();
}

sim::Task run_cm1_and_signal(workloads::Cm1Application* app, sim::WaitGroup* wg) {
  co_await app->run_all();
  wg->done();
}

sim::Task run_trace_and_signal(workloads::TraceApplication* app, sim::WaitGroup* wg) {
  co_await app->run_all();
  wg->done();
}

sim::Task migrate_and_signal(Middleware* mw, vm::VmInstance* v, net::NodeId dst,
                             sim::WaitGroup* wg) {
  co_await mw->migrate(*v, dst);
  wg->done();
}

/// One planned migration launch; event callbacks capture a pointer to this
/// record (a schedule lambda's capture must fit a timer's two words).
struct MigLaunch {
  sim::Simulator* sim;
  Middleware* mw;
  vm::VmInstance* target;
  sim::WaitGroup* done;
  net::NodeId dst;
};

}  // namespace

/// What one simulator slice hands the merge: raw material, no aggregates.
/// Everything ExperimentResult reports is derived from these in
/// merge_parts(), for one slice or N.
struct Experiment::Slice {
  struct VmAgg {
    std::uint32_t id;  // global VM id
    core::IoStats io;
    double cpu_seconds;
  };
  /// Migration records in the order the slice began them.
  std::vector<core::MigrationRecord> migrations;
  /// Global launch index of each record on the fixed schedule, ascending
  /// and parallel to `migrations`: the N-slice merge orders records by it.
  /// Empty under the scheduler, which has no launch index (and collapses
  /// the plan to one slice).
  std::vector<std::uint32_t> launch_ks;
  /// Per owned VM, ascending id.
  std::vector<VmAgg> per_vm;
  std::array<double, net::kNumTrafficClasses> traffic_bytes{};
  // Simulator, network and frame-pool counters (this slice's deltas).
  std::uint64_t events = 0, flows = 0, recomputes = 0, components = 0;
  std::uint64_t flows_resolved = 0, escalations = 0;
  std::uint64_t validation_walks = 0, certified_epochs = 0, proven_escalations = 0;
  std::uint64_t sessions_retaining_state = 0;
  std::uint64_t frames = 0, frames_reused = 0, frame_heap_allocs = 0;
  /// Injector-side counters only; the record-derived half is the merge's.
  RecoveryStats injector{};
  SchedulerStats scheduler{};
  std::uint64_t audit_checks = 0;
  std::vector<std::string> audit_violations;
  std::string error;
  bool completed = true;
  double sim_duration = 0;
  double app_execution_time = 0;
  double wall_ms = 0;  // the event loop only
  /// Runtime coupling guard: any base-image fetch means a repository stripe
  /// on a foreign-owned node served traffic this slice cannot account for.
  std::uint64_t repo_chunks_served = 0;
};

Experiment::Slice Experiment::run_slice(const std::vector<std::uint32_t>& owned) const {
  const ExperimentConfig& cfg = cfg_;
  // Everything below (setup included) lives on this thread, so the
  // thread-local frame pool's counters bracket the whole slice.
  const sim::FramePool::Stats frames_before = sim::FramePool::local().stats();
  // A slice of part of the fleet builds only the nodes its VMs touch (each
  // one's home node, and its migration's destination), renumbered densely
  // in ascending global order, so its setup grows with the slice, not the
  // fleet. Its repository stripes over those nodes only, which is moot: any
  // repository fetch trips a runtime guard. The one-slice plan (every
  // coupled regime) builds every node of the config.
  const bool fixed_schedule = cfg.perform_migrations && !cfg.scheduler.enabled();
  std::vector<net::NodeId> nodes;  // global id of each local node, ascending
  if (owned.size() < cfg.num_vms) {
    for (const std::uint32_t gid : owned) {
      nodes.push_back(static_cast<net::NodeId>(gid));
      if (fixed_schedule && gid < cfg.num_migrations) nodes.push_back(cfg.destination_of(gid));
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  }
  const auto local = [&nodes](std::size_t global) {
    return nodes.empty() ? static_cast<net::NodeId>(global)
                         : static_cast<net::NodeId>(
                               std::lower_bound(nodes.begin(), nodes.end(), global) -
                               nodes.begin());
  };
  // NOTE: the simulator must be declared first among the simulation objects
  // (destroyed last) so pending event closures never outlive it.
  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster, nodes);
  Middleware mw(simulator, cluster, cfg.approach, cfg.approach_cfg);
  std::vector<vm::VmInstance*> vms;
  Slice out;
  workloads::TraceRecorder* recorder = cfg.trace_recorder;
  sim::WaitGroup workload_done(simulator);
  std::vector<std::unique_ptr<workloads::Workload>> single_vm_workloads;
  std::unique_ptr<workloads::Cm1Application> cm1_app;
  std::unique_ptr<workloads::TraceData> trace_owned;
  std::unique_ptr<workloads::TraceApplication> trace_app;
  sim::WaitGroup migrations_done(simulator);
  std::vector<MigLaunch> launches;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<Auditor> auditor;
  std::unique_ptr<Scheduler> scheduler;

  // `owned` holds global VM ids: VM i deploys on (the local stand-in of)
  // node i and keeps id i, whatever the slicing.
  vms.reserve(owned.size());
  for (const std::uint32_t gid : owned)
    vms.push_back(&mw.deploy(local(gid), cfg.vm, static_cast<int>(gid)));

  // --- trace recording (passive observation of the workload API) ----------
  if (recorder != nullptr)
    for (auto* v : vms) recorder->attach(*v);

  // --- workloads -----------------------------------------------------------
  const double workload_started_at = simulator.now();
  switch (cfg.workload) {
    case WorkloadKind::kNone:
      break;
    case WorkloadKind::kIor:
      for (auto* v : vms) {
        single_vm_workloads.push_back(std::make_unique<workloads::IorWorkload>(cfg.ior));
        workload_done.add();
        simulator.spawn(run_and_signal(single_vm_workloads.back().get(), v, &workload_done));
      }
      break;
    case WorkloadKind::kAsyncWr:
      for (auto* v : vms) {
        single_vm_workloads.push_back(
            std::make_unique<workloads::AsyncWrWorkload>(cfg.asyncwr));
        workload_done.add();
        simulator.spawn(run_and_signal(single_vm_workloads.back().get(), v, &workload_done));
      }
      break;
    case WorkloadKind::kCm1:
      cm1_app = std::make_unique<workloads::Cm1Application>(simulator, vms, cfg.cm1);
      workload_done.add();
      simulator.spawn(run_cm1_and_signal(cm1_app.get(), &workload_done));
      break;
    case WorkloadKind::kTrace: {
      workloads::TraceReplayOptions opts;
      opts.broadcast = cfg.trace.broadcast;
      if (cfg.trace.data != nullptr) {
        trace_app = std::make_unique<workloads::TraceApplication>(simulator, vms,
                                                                  *cfg.trace.data, opts);
      } else if (!cfg.trace.path.empty()) {
        // One streaming reader drives every VM: bounded memory even for
        // long traces at high VM counts.
        trace_app = std::make_unique<workloads::TraceApplication>(simulator, vms,
                                                                  cfg.trace.path, opts);
      } else {
        trace_owned = std::make_unique<workloads::TraceData>(
            workloads::generate_trace(cfg.trace.gen, cfg.seed));
        trace_app = std::make_unique<workloads::TraceApplication>(simulator, vms,
                                                                  *trace_owned, opts);
      }
      workload_done.add();
      simulator.spawn(run_trace_and_signal(trace_app.get(), &workload_done));
      break;
    }
  }

  // --- migration schedule -------------------------------------------------
  // Launch k targets VM k with destination cfg.destination_of(k); times
  // and schedule order depend only on the global index, so a slice
  // schedules its owned subset identically to the whole fleet.
  // With the continuous scheduler enabled the fixed launch schedule is
  // replaced wholesale: requests arrive from the configured stream and the
  // scheduler owns VM choice, placement, admission and retries. Scheduler
  // regimes statically collapse the shard plan (shard_plan.cpp), so this
  // branch only ever runs in the one-slice plan.
  if (cfg.perform_migrations && cfg.scheduler.enabled()) {
    migrations_done.add();
    scheduler = std::make_unique<Scheduler>(
        simulator, cluster, mw, cfg.scheduler, static_cast<net::NodeId>(cfg.num_vms),
        static_cast<std::uint32_t>(cfg.num_destinations), &migrations_done);
    scheduler->start();
  } else if (fixed_schedule) {
    launches.reserve(owned.size());  // addresses must survive the timers
    for (std::size_t idx = 0; idx < owned.size(); ++idx) {
      const std::uint32_t k = owned[idx];
      if (k >= cfg.num_migrations) continue;
      const double at = cfg.first_migration_at + static_cast<double>(k) *
                                                     cfg.migration_interval_s;
      launches.push_back(MigLaunch{&simulator, &mw, vms[idx], &migrations_done,
                                   local(cfg.destination_of(k))});
      migrations_done.add();
      simulator.schedule(at, [l = &launches.back()] {
        l->sim->spawn(migrate_and_signal(l->mw, l->target, l->dst, l->done));
      });
      out.launch_ks.push_back(k);
    }
  }

  // --- fault plan ---------------------------------------------------------
  // Any fault spec collapses the shard plan, so this slice owns every VM.
  if (cfg.faults.enabled()) {
    injector = std::make_unique<FaultInjector>(simulator, cluster, mw, cfg);
    injector->arm();
  }

  // --- invariant auditor --------------------------------------------------
  if (cfg.audit) {
    auditor = std::make_unique<Auditor>(simulator, mw, Auditor::kCheckIntervalS,
                                        Auditor::kProgressDeadlineS);
    if (injector) auditor->set_injector(injector.get());
    mw.set_auditor(auditor.get());
    auditor->arm();
  }

  // --- event loop -----------------------------------------------------------
  const Clock::time_point wall_start = Clock::now();
  while (workload_done.count() != 0 || migrations_done.count() != 0) {
    if (!simulator.step()) break;
    if (cfg.max_sim_time > 0 && simulator.now() > cfg.max_sim_time) {
      out.completed = false;
      break;
    }
  }
  out.wall_ms = ms_since(wall_start);

  // --- raw material for the merge -----------------------------------------
  if (trace_app && trace_app->failed()) {
    out.error = trace_app->error();
    out.completed = false;
  }
  for (const vm::VmInstance* v : vms) {
    if (!out.error.empty()) break;
    if (!v->error().empty()) {
      out.error = v->error();  // a file op ran past the image end
      out.completed = false;
    }
  }
  if (recorder != nullptr && recorder->failed() && out.error.empty())
    out.error = recorder->error();
  out.sim_duration = simulator.now();
  out.app_execution_time = cfg.workload == WorkloadKind::kCm1
                               ? cm1_app->execution_time()
                               : simulator.now() - workload_started_at;
  out.migrations.assign(mw.metrics().migrations().begin(),
                        mw.metrics().migrations().end());
  for (const auto& session : mw.sessions()) {
    const core::MigrationRecord& rec = session->record();
    if (!session->transfer_state_released() && (rec.t_source_released > 0 || rec.abandoned))
      ++out.sessions_retaining_state;
  }
  for (vm::VmInstance* v : vms)
    out.per_vm.push_back(Slice::VmAgg{static_cast<std::uint32_t>(v->id()), v->io_stats(),
                                      v->cpu_seconds()});

  if (injector) {
    out.injector.faults_injected = injector->faults_applied();
    out.injector.fault_downtime_s = injector->fault_pause_s();
    out.injector.node_crashes = injector->node_crashes();
    out.injector.correlated_events = injector->correlated_events();
    out.injector.node_downtime_s = injector->node_downtime_s();
  }
  if (scheduler) out.scheduler = scheduler->stats();
  if (auditor) {
    out.audit_checks = auditor->checks_run();
    out.audit_violations = auditor->violations();
  }

  auto& network = cluster.network();
  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
    out.traffic_bytes[i] = network.traffic_bytes(static_cast<net::TrafficClass>(i));
  out.events = simulator.events_processed();
  out.flows = network.flows_started();
  out.recomputes = network.recompute_count();
  out.components = network.solved_component_count();
  out.flows_resolved = network.touched_flow_count();
  out.escalations = network.escalation_count();
  out.validation_walks = network.validation_walk_count();
  out.certified_epochs = network.certified_epoch_count();
  out.proven_escalations = network.proven_escalation_count();
  const sim::FramePool::Stats frames_after = sim::FramePool::local().stats();
  out.frames = frames_after.served - frames_before.served;
  out.frames_reused = frames_after.reused - frames_before.reused;
  out.frame_heap_allocs = frames_after.heap - frames_before.heap;
  out.repo_chunks_served = cluster.repository().chunks_served();
  // Reclaim daemons still parked on awaitables (writeback loops, truncated
  // workloads) while the cluster they reference is alive: frame destructors
  // may touch backend objects, and the cluster dies before the simulator in
  // this scope's reverse destruction order.
  simulator.destroy_detached();
  return out;
}

ExperimentResult Experiment::merge_parts(std::vector<Slice>& parts) const {
  // The one place every aggregate is computed, for one slice or N. Every
  // reduction follows the accumulation order of one simulator over the
  // whole fleet: migration records in begin order (by global launch index
  // across N slices), per-VM doubles in global VM order, spans as maxima.
  // Traffic and byte counters are sums of integer-valued doubles, so
  // slice-order summation is exact.
  ExperimentResult res;
  res.approach = core::approach_name(cfg_.approach);
  res.workload = workload_name(cfg_.workload);
  res.shards_used = static_cast<std::uint32_t>(parts.size());
  // The scheduler collapses the plan, so at most the one slice ran it.
  res.scheduler = parts[0].scheduler;
  for (Slice& p : parts) {
    res.completed = res.completed && p.completed;
    if (res.error.empty()) res.error = std::move(p.error);
    res.sim_duration = std::max(res.sim_duration, p.sim_duration);
    res.app_execution_time = std::max(res.app_execution_time, p.app_execution_time);
    res.engine_events += p.events;
    res.engine_flows += p.flows;
    res.engine_recomputes += p.recomputes;
    res.engine_components += p.components;
    res.engine_flows_resolved += p.flows_resolved;
    res.engine_escalations += p.escalations;
    res.engine_validation_walks += p.validation_walks;
    res.engine_certified_epochs += p.certified_epochs;
    res.engine_proven_escalations += p.proven_escalations;
    res.sessions_retaining_state += p.sessions_retaining_state;
    res.engine_frames += p.frames;
    res.engine_frames_reused += p.frames_reused;
    res.engine_frame_heap_allocs += p.frame_heap_allocs;
    for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
      res.traffic_bytes[i] += p.traffic_bytes[i];
    res.recovery.faults_injected += p.injector.faults_injected;
    res.recovery.node_crashes += p.injector.node_crashes;
    res.recovery.correlated_events += p.injector.correlated_events;
    res.recovery.fault_downtime_s += p.injector.fault_downtime_s;
    res.recovery.node_downtime_s += p.injector.node_downtime_s;
    res.audit_checks += p.audit_checks;
    for (std::string& v : p.audit_violations) res.audit_violations.push_back(std::move(v));
  }
  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
    res.total_traffic += res.traffic_bytes[i];
  res.migration_traffic =
      res.total_traffic - res.traffic(net::TrafficClass::kAppComm);

  // Migration records: one slice keeps its own order; N slices interleave
  // by global launch index (each slice's list is ascending and the slices
  // are disjoint — a k-way merge).
  if (parts.size() == 1) {
    res.migrations = std::move(parts[0].migrations);
  } else {
    std::vector<std::pair<std::uint32_t, core::MigrationRecord*>> recs;
    for (Slice& p : parts) {
      assert(p.launch_ks.size() == p.migrations.size());
      for (std::size_t j = 0; j < p.migrations.size(); ++j)
        recs.emplace_back(p.launch_ks[j], &p.migrations[j]);
    }
    std::sort(recs.begin(), recs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    res.migrations.reserve(recs.size());
    for (const auto& [k, rec] : recs) res.migrations.push_back(std::move(*rec));
  }
  for (const core::MigrationRecord& m : res.migrations) {
    res.total_migration_time += m.migration_time();
    res.max_downtime = std::max(res.max_downtime, m.downtime_s);
  }
  res.avg_migration_time =
      res.migrations.empty() ? 0 : res.total_migration_time / res.migrations.size();
  recovery_from_migrations(res.migrations, &res.recovery);

  // Per-VM doubles in global VM order (slices hold disjoint ascending ids).
  std::vector<const Slice::VmAgg*> by_vm;
  for (const Slice& p : parts)
    for (const Slice::VmAgg& a : p.per_vm) by_vm.push_back(&a);
  std::sort(by_vm.begin(), by_vm.end(),
            [](const Slice::VmAgg* a, const Slice::VmAgg* b) { return a->id < b->id; });
  double wtime = 0, rtime = 0;
  for (const Slice::VmAgg* a : by_vm) {
    res.bytes_written += a->io.bytes_written;
    res.bytes_read += a->io.bytes_read;
    wtime += a->io.write_time_s;
    rtime += a->io.read_time_s;
    res.cpu_seconds_total += a->cpu_seconds;
  }
  res.write_Bps = wtime > 0 ? res.bytes_written / wtime : 0;
  res.read_Bps = rtime > 0 ? res.bytes_read / rtime : 0;
  return res;
}

ExperimentResult Experiment::run() { return run(plan_shards(cfg_)); }

ExperimentResult Experiment::run(const ShardPlan& plan) {
  const Clock::time_point start = Clock::now();
  ExperimentResult res = std::move(run_all({this, 1}, {&plan, 1}, cfg_.shards)[0]);
  // N merged slices report the whole fan-out, worker start and stop included.
  if (res.shards_used > 1) res.wall_ms = ms_since(start);
  return res;
}

std::vector<ExperimentResult> Experiment::run_all(std::span<const Experiment> exps,
                                                  std::span<const ShardPlan> plans,
                                                  unsigned workers) {
  // Conservative runtime guards for N slices: anything a slice cannot prove
  // independent (a repository fetch from a stripe another slice owns, a
  // max_sim_time truncation whose cut point depends on the global
  // interleave, any error whose text mentions global state) reruns the
  // one-slice plan. Correctness is never traded for wall-clock.
  const auto guard_of = [](const Slice& p) -> std::string {
    if (!p.error.empty()) return "runtime guard: slice error: " + p.error;
    if (!p.completed) return "runtime guard: max_sim_time truncation";
    if (p.repo_chunks_served > 0)
      return "runtime guard: repository stripe served cross-shard traffic";
    return {};
  };
  struct Point {
    std::vector<Slice> parts;
    Clock::time_point start;  // when slice 0 started
  };
  std::vector<ExperimentResult> results(exps.size());
  std::vector<Point> points(exps.size());
  std::vector<std::uint32_t> slices(exps.size(), 0);  // 0: invalid config, no task
  for (std::size_t p = 0; p < exps.size(); ++p) {
    if (std::string err = exps[p].cfg_.validate(); !err.empty()) {
      results[p].completed = false;
      results[p].error = std::move(err);
    } else {
      slices[p] = plans[p].shard_count();
      points[p].parts.resize(slices[p]);
    }
  }
  fan_out(
      slices, workers,
      [&](std::size_t p, std::uint32_t s) {
        if (s == 0) points[p].start = Clock::now();
        const Slice& part = points[p].parts[s] = exps[p].run_slice(plans[p].slices[s]);
        return slices[p] > 1 && !guard_of(part).empty();
      },
      [&](std::size_t p, std::uint32_t trip) {
        if (slices[p] == 0) return;  // results[p] holds the config error
        const Experiment& exp = exps[p];
        std::vector<Slice>& parts = points[p].parts;
        std::string reason = plans[p].collapse_reason;
        if (trip < slices[p]) {  // the lowest tripped slice names the guard
          reason = guard_of(parts[trip]);
          parts.clear();
          parts.push_back(exp.run_slice(one_slice_plan(exp.cfg_.num_vms, {}).slices[0]));
        }
        ExperimentResult& res = results[p] = exp.merge_parts(parts);
        res.shard_fallback_reason = std::move(reason);
        // One slice reports its event loop; N slices their span.
        res.wall_ms = parts.size() == 1 ? parts[0].wall_ms : ms_since(points[p].start);
        parts = {};
      });
  return results;
}

ExperimentResult run_baseline(ExperimentConfig cfg) {
  cfg.perform_migrations = false;
  return Experiment(std::move(cfg)).run();
}

}  // namespace hm::cloud
