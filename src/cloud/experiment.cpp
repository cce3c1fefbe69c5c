#include "cloud/experiment.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

#include "cloud/auditor.h"
#include "cloud/fault_injector.h"
#include "cloud/shard_plan.h"
#include "sim/frame_pool.h"
#include "sim/sharded.h"

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
  approach_cfg.approach = approach;
}

std::string ExperimentConfig::validate() const {
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
/// record (the schedule lambda must fit SmallFn's two-word budget).
struct MigLaunch {
  sim::Simulator* sim;
  Middleware* mw;
  vm::VmInstance* target;
  sim::WaitGroup* done;
  net::NodeId dst;
};

}  // namespace

struct Experiment::SliceDetail {
  struct VmAgg {
    std::uint32_t id;  // global VM id
    core::IoStats io;
    double cpu_seconds;
  };
  /// Per owned VM, ascending id — lets the merge re-accumulate the per-VM
  /// doubles in global VM order, the same order the single-shard loop uses.
  std::vector<VmAgg> per_vm;
  /// Global launch indices of the slice's migrations, ascending; parallel
  /// to the slice result's `migrations` records.
  std::vector<std::uint32_t> launch_ks;
  /// Runtime coupling guard: any base-image fetch means a repository stripe
  /// on a foreign-owned node served traffic this slice cannot account for.
  std::uint64_t repo_chunks_served = 0;
};

ExperimentResult Experiment::run_slice(const std::vector<std::uint32_t>* owned,
                                       SliceDetail* detail) const {
  const ExperimentConfig& cfg = cfg_;
  // Everything below (setup included) lives on this thread, so the
  // thread-local frame pool's counters bracket the whole slice.
  const sim::FramePool::Stats frames_before = sim::FramePool::local().stats();
  // NOTE: the simulator must be declared first among the simulation objects
  // (destroyed last) so pending event closures never outlive it.
  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster);
  Middleware mw(simulator, cluster, cfg.approach_cfg);
  std::vector<vm::VmInstance*> vms;
  ExperimentResult res;
  std::unique_ptr<workloads::TraceRecorder> recorder_owned;
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

  const std::size_t n_vms = cfg.num_vms;
  // Global ids of the VMs this slice owns (all of them on the single-shard
  // path). Each shard holds a full cluster replica with the global node
  // numbering, so VM i always deploys on node i regardless of slicing.
  const std::size_t n_owned = owned ? owned->size() : n_vms;
  vms.reserve(n_owned);
  for (std::size_t idx = 0; idx < n_owned; ++idx) {
    const auto gid = static_cast<std::uint32_t>(owned ? (*owned)[idx] : idx);
    vms.push_back(&mw.deploy(static_cast<net::NodeId>(gid), cfg.vm, static_cast<int>(gid)));
  }

  // --- trace recording (passive observation of the workload API) ----------
  if (recorder == nullptr && !cfg.record_trace_path.empty()) {
    workloads::TraceHeader hdr;
    hdr.page_bytes = cfg.vm.memory.page_bytes;
    hdr.chunk_bytes = cfg.cluster.image.chunk_bytes;
    hdr.pages = (cfg.vm.memory.ram_bytes + cfg.vm.memory.page_bytes - 1) /
                cfg.vm.memory.page_bytes;
    hdr.chunks = cfg.cluster.image.num_chunks();
    hdr.name = std::string("rec:") + workload_name(cfg.workload);
    recorder_owned = std::make_unique<workloads::TraceRecorder>(hdr);
    recorder = recorder_owned.get();
  }
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
  // Launch k targets VM k with destination n_vms + (k % num_destinations);
  // times and schedule order depend only on the global index, so a slice
  // schedules its owned subset identically to the full run.
  // With the continuous scheduler enabled the fixed launch schedule is
  // replaced wholesale: requests arrive from the configured stream and the
  // scheduler owns VM choice, placement, admission and retries. Scheduler
  // regimes statically collapse the shard plan (shard_plan.cpp), so this
  // branch only ever runs on the full (owned == nullptr) path.
  if (cfg.perform_migrations && cfg.scheduler.enabled()) {
    migrations_done.add();
    scheduler = std::make_unique<Scheduler>(
        simulator, cluster, mw, cfg.scheduler, static_cast<net::NodeId>(n_vms),
        static_cast<std::uint32_t>(cfg.num_destinations), &migrations_done);
    scheduler->start();
  } else if (cfg.perform_migrations) {
    launches.reserve(n_owned);  // addresses must survive the timers
    for (std::size_t idx = 0; idx < n_owned; ++idx) {
      const std::size_t k = owned ? (*owned)[idx] : idx;
      if (k >= cfg.num_migrations) continue;
      const double at = cfg.first_migration_at + static_cast<double>(k) *
                                                     cfg.migration_interval_s;
      const net::NodeId dst =
          static_cast<net::NodeId>(n_vms + (k % cfg.num_destinations));
      launches.push_back(MigLaunch{&simulator, &mw, vms[idx], &migrations_done, dst});
      migrations_done.add();
      simulator.schedule(at, [l = &launches.back()] {
        l->sim->spawn(migrate_and_signal(l->mw, l->target, l->dst, l->done));
      });
      if (detail != nullptr) detail->launch_ks.push_back(static_cast<std::uint32_t>(k));
    }
  }

  // --- fault plan ---------------------------------------------------------
  // Churn/rand/global-scoped plans statically collapse to one shard, so
  // those only ever arm on the full (owned == nullptr) path. Routable
  // scripted plans (plan_shards verified every target maps into one
  // component) arm per slice with the events the slice owns.
  if (cfg.faults.enabled()) {
    sim::FaultPlan plan = sim::build_fault_plan(
        cfg.faults, cluster.rng(), static_cast<std::uint32_t>(cfg.num_migrations));
    if (owned != nullptr) {
      std::erase_if(plan.events, [&](const sim::FaultEvent& ev) {
        const auto v = static_cast<std::uint32_t>(
            cfg.num_vms > 0 ? ev.target % cfg.num_vms : 0);
        return !std::binary_search(owned->begin(), owned->end(), v);
      });
    }
    if (owned == nullptr || plan.enabled()) {
      injector = std::make_unique<FaultInjector>(simulator, cluster, mw, std::move(plan),
                                                 cfg.num_vms, cfg.num_destinations);
      injector->arm();
    }
  }

  // --- invariant auditor --------------------------------------------------
  if (cfg.audit) {
    auditor = std::make_unique<Auditor>(simulator, mw, cfg.audit_check_interval_s,
                                        cfg.audit_progress_deadline_s);
    if (injector) auditor->set_injector(injector.get());
    mw.set_auditor(auditor.get());
    auditor->arm();
  }

  // --- event loop -----------------------------------------------------------
  const auto wall_start = std::chrono::steady_clock::now();
  while (workload_done.count() != 0 || migrations_done.count() != 0) {
    if (!simulator.step()) break;
    if (cfg.max_sim_time > 0 && simulator.now() > cfg.max_sim_time) {
      res.completed = false;
      break;
    }
  }
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();

  // --- collect --------------------------------------------------------------
  if (trace_app && trace_app->failed()) {
    res.error = trace_app->error();
    res.completed = false;
  }
  if (recorder != nullptr && recorder->failed() && res.error.empty())
    res.error = recorder->error();
  if (recorder_owned) {
    std::string werr;
    if (!write_trace(cfg.record_trace_path, recorder_owned->data(), &werr) &&
        res.error.empty())
      res.error = werr;
  }
  res.approach = core::approach_name(cfg.approach);
  res.workload = workload_name(cfg.workload);
  res.sim_duration = simulator.now();
  res.migrations.assign(mw.metrics().migrations().begin(),
                        mw.metrics().migrations().end());
  res.total_migration_time = mw.metrics().total_migration_time();
  res.avg_migration_time = mw.metrics().avg_migration_time();
  res.max_downtime = mw.metrics().max_downtime();

  if (injector) {
    res.recovery.faults_injected = injector->faults_applied();
    res.recovery.fault_downtime_s = injector->fault_pause_s();
    res.recovery.node_crashes = injector->node_crashes();
    res.recovery.correlated_events = injector->correlated_events();
    res.recovery.node_downtime_s = injector->node_downtime_s();
  }
  recovery_from_migrations(res.migrations, &res.recovery);
  if (scheduler) res.scheduler = scheduler->stats();
  if (auditor) {
    res.audit_checks = auditor->checks_run();
    res.audit_violations = auditor->violations();
  }

  auto& network = cluster.network();
  res.engine_events = simulator.events_processed();
  res.engine_flows = network.flows_started();
  res.engine_recomputes = network.recompute_count();
  res.engine_components = network.solved_component_count();
  res.engine_flows_resolved = network.touched_flow_count();
  res.engine_escalations = network.escalation_count();
  const sim::FramePool::Stats frames_after = sim::FramePool::local().stats();
  res.engine_frames = frames_after.served - frames_before.served;
  res.engine_frames_reused = frames_after.reused - frames_before.reused;
  res.engine_frame_heap_allocs = frames_after.heap - frames_before.heap;

  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
    res.traffic_bytes[i] = network.traffic_bytes(static_cast<net::TrafficClass>(i));
  res.total_traffic = network.total_traffic_bytes();
  res.migration_traffic =
      res.total_traffic - network.traffic_bytes(net::TrafficClass::kAppComm);

  double wtime = 0, rtime = 0;
  for (std::size_t idx = 0; idx < vms.size(); ++idx) {
    vm::VmInstance* v = vms[idx];
    const core::IoStats& io = v->io_stats();
    res.bytes_written += io.bytes_written;
    res.bytes_read += io.bytes_read;
    wtime += io.write_time_s;
    rtime += io.read_time_s;
    res.cpu_seconds_total += v->cpu_seconds();
    if (detail != nullptr) {
      const auto gid = static_cast<std::uint32_t>(owned ? (*owned)[idx] : idx);
      detail->per_vm.push_back(SliceDetail::VmAgg{gid, io, v->cpu_seconds()});
    }
  }
  res.write_Bps = wtime > 0 ? res.bytes_written / wtime : 0;
  res.read_Bps = rtime > 0 ? res.bytes_read / rtime : 0;

  switch (cfg.workload) {
    case WorkloadKind::kCm1:
      res.app_execution_time = cm1_app ? cm1_app->execution_time() : 0;
      break;
    default:
      res.app_execution_time = simulator.now() - workload_started_at;
      break;
  }
  if (detail != nullptr) detail->repo_chunks_served = cluster.repository().chunks_served();
  // Reclaim daemons still parked on awaitables (writeback loops, truncated
  // workloads) while the cluster they reference is alive: frame destructors
  // may touch backend objects, and the cluster dies before the simulator in
  // this scope's reverse destruction order.
  simulator.destroy_detached();
  return res;
}

ExperimentResult Experiment::run_sharded(const ShardPlan& plan) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint32_t n = plan.shard_count();
  std::vector<ExperimentResult> parts(n);
  std::vector<SliceDetail> details(n);
  sim::ShardedSimulator shards(n);
  shards.run([&](std::uint32_t s) { parts[s] = run_slice(&plan.slices[s], &details[s]); });

  // Conservative runtime guards: anything a slice cannot prove independent
  // (a repository fetch from a stripe another shard owns, a max_sim_time
  // truncation whose cut point depends on the global interleave, any error
  // whose text mentions global state) reruns single-shard. Correctness is
  // never traded for wall-clock.
  std::string guard;
  for (std::uint32_t s = 0; s < n && guard.empty(); ++s) {
    if (!parts[s].error.empty())
      guard = "runtime guard: slice error: " + parts[s].error;
    else if (!parts[s].completed)
      guard = "runtime guard: max_sim_time truncation";
    else if (details[s].repo_chunks_served > 0)
      guard = "runtime guard: repository stripe served cross-shard traffic";
  }
  if (!guard.empty()) {
    ExperimentResult res = run_slice(nullptr, nullptr);
    res.shards_used = 1;
    res.shard_fallback_reason = std::move(guard);
    return res;
  }

  ExperimentResult res = merge_parts(parts, details);
  res.shards_used = n;
  res.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return res;
}

ExperimentResult Experiment::merge_parts(std::vector<ExperimentResult>& parts,
                                         std::vector<SliceDetail>& details) const {
  const std::uint32_t n = static_cast<std::uint32_t>(parts.size());
  // --- deterministic merge --------------------------------------------------
  // Every reduction replicates the accumulation order of the single-shard
  // collect pass: migration records by global launch index, per-VM doubles
  // in global VM order, spans as maxima. Traffic and byte counters are sums
  // of integer-valued doubles, so shard-order summation is exact.
  ExperimentResult res;
  res.approach = parts[0].approach;
  res.workload = parts[0].workload;
  res.completed = true;
  for (const ExperimentResult& p : parts) {
    res.sim_duration = std::max(res.sim_duration, p.sim_duration);
    res.app_execution_time = std::max(res.app_execution_time, p.app_execution_time);
    res.engine_events += p.engine_events;
    res.engine_flows += p.engine_flows;
    res.engine_recomputes += p.engine_recomputes;
    res.engine_components += p.engine_components;
    res.engine_flows_resolved += p.engine_flows_resolved;
    res.engine_escalations += p.engine_escalations;
    res.engine_frames += p.engine_frames;
    res.engine_frames_reused += p.engine_frames_reused;
    res.engine_frame_heap_allocs += p.engine_frame_heap_allocs;
    for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
      res.traffic_bytes[i] += p.traffic_bytes[i];
  }
  for (std::size_t i = 0; i < net::kNumTrafficClasses; ++i)
    res.total_traffic += res.traffic_bytes[i];
  res.migration_traffic =
      res.total_traffic - res.traffic(net::TrafficClass::kAppComm);

  // Migration records, ordered by global launch index (each slice's list is
  // already ascending and the slices are disjoint — a k-way merge).
  std::vector<std::pair<std::uint32_t, const core::MigrationRecord*>> recs;
  for (std::uint32_t s = 0; s < n; ++s) {
    assert(details[s].launch_ks.size() == parts[s].migrations.size());
    for (std::size_t j = 0; j < parts[s].migrations.size(); ++j)
      recs.emplace_back(details[s].launch_ks[j], &parts[s].migrations[j]);
  }
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  res.migrations.reserve(recs.size());
  for (const auto& [k, rec] : recs) res.migrations.push_back(*rec);
  for (const core::MigrationRecord& m : res.migrations) {
    res.total_migration_time += m.migration_time();
    res.max_downtime = std::max(res.max_downtime, m.downtime_s);
  }
  res.avg_migration_time =
      res.migrations.empty() ? 0 : res.total_migration_time / res.migrations.size();

  // Record-derived recovery aggregates recompute from the merged records
  // (identical accumulation order to the single-shard collect); injector-
  // and auditor-side counters sum across the slices that armed them.
  recovery_from_migrations(res.migrations, &res.recovery);
  for (const ExperimentResult& p : parts) {
    res.recovery.faults_injected += p.recovery.faults_injected;
    res.recovery.node_crashes += p.recovery.node_crashes;
    res.recovery.correlated_events += p.recovery.correlated_events;
    res.recovery.fault_downtime_s += p.recovery.fault_downtime_s;
    res.recovery.node_downtime_s += p.recovery.node_downtime_s;
    res.audit_checks += p.audit_checks;
    for (const std::string& v : p.audit_violations) res.audit_violations.push_back(v);
  }

  // Per-VM doubles in global VM order (slices hold disjoint ascending ids).
  std::vector<const SliceDetail::VmAgg*> by_vm;
  for (const SliceDetail& d : details)
    for (const SliceDetail::VmAgg& a : d.per_vm) by_vm.push_back(&a);
  std::sort(by_vm.begin(), by_vm.end(),
            [](const SliceDetail::VmAgg* a, const SliceDetail::VmAgg* b) {
              return a->id < b->id;
            });
  double wtime = 0, rtime = 0;
  for (const SliceDetail::VmAgg* a : by_vm) {
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

ExperimentResult Experiment::run() {
  if (std::string err = cfg_.validate(); !err.empty()) {
    ExperimentResult res;
    res.completed = false;
    res.error = std::move(err);
    return res;
  }
  const ShardPlan plan = plan_shards(cfg_);
  if (plan.shard_count() <= 1) {
    ExperimentResult res = run_slice(nullptr, nullptr);
    res.shards_used = 1;
    res.shard_fallback_reason = plan.collapse_reason;
    return res;
  }
  return run_sharded(plan);
}

ExperimentResult run_baseline(ExperimentConfig cfg) {
  cfg.perform_migrations = false;
  return Experiment(std::move(cfg)).run();
}

}  // namespace hm::cloud
