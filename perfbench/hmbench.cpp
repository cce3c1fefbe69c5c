// In-process benchmark runner for hybridmig (launched by perfbench/run.py).
//
//   hmbench run   --workload W --seed S [--n N] [--shards K]
//   hmbench probe --workload W --seed S [--n N] [--in-flight M]
//   hmbench info
//
// `run` builds one experiment point of a named workload, times the config
// build + Experiment construction and Experiment::run() from outside, and
// prints one JSON line: host timings, the simulated (model) outputs the
// correctness check compares against the recorded reference, and the
// engine/model counts the per-layer report uses. One experiment per process,
// so peak RSS is the peak of exactly that run.
//
// `probe` runs the per-layer probes for a workload: each one drives a single
// module's public API on the workload's shape (topology, live-flow count,
// image geometry) and reports host time per operation, with one span per
// probe for the Chrome trace. `info` prints the build stamp.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "cloud/experiment.h"
#include "cloud/recovery.h"
#include "cloud/shard_plan.h"
#include "core/hybrid_migrator.h"
#include "core/migration_manager.h"
#include "net/flow_network.h"
#include "sim/fault_plan.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "storage/chunk_store.h"
#include "storage/page_cache.h"
#include "vm/compute_node.h"
#include "vm/memory.h"

namespace {

using namespace hm;
using storage::kGiB;
using storage::kKiB;
using storage::kMiB;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

double since_start_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_t0).count();
}
double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "hmbench: %s\n", msg.c_str());
  std::exit(2);
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t n;         // fleet size (VMs)
  bool nonblocking;      // full-bisection core vs 20-node oversubscribed racks
  double stagger_s;      // migration launch spacing (fleet workloads)
  bool service;          // steady-state scheduler + churn faults + auditor
  std::uint32_t shards;
};

const Workload kWorkloads[] = {
    {"fleet-stagger-nb", 256, true, 0.05, false, 1},
    {"fleet-burst-oversub", 256, false, 0.0, false, 1},
    {"service-churn", 128, false, 0.0, true, 1},
    {"fleet-stagger-nb-s4", 256, true, 0.05, false, 4},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  die("unknown workload '" + name + "'");
}

// The fig4_scale_sweep / steady_state_sweep engine-stress footprint: paper
// network parameters (GbE NICs, 8 GB/s fabric, 55 MB/s disks) with lean
// 1 GiB images and guests, AsyncWR writing 300 MiB per VM.
cloud::ExperimentConfig base_config(bool nonblocking) {
  cloud::ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.nic_Bps = 117.5e6;
  cfg.cluster.network.fabric_Bps = 8.0e9;
  cfg.cluster.network.latency_s = 1e-4;
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.5e-3};
  cfg.cluster.image = storage::ImageConfig{1 * kGiB, 256 * static_cast<std::uint32_t>(kKiB)};
  cfg.vm.memory.ram_bytes = 1 * kGiB;
  cfg.vm.memory.page_bytes = 256 * kKiB;
  cfg.vm.memory.base_used_bytes = 128 * kMiB;
  cfg.vm.cache.capacity_bytes = 768 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 256 * kMiB;
  cfg.vm.cache.write_Bps = 266e6;
  cfg.vm.cache.read_Bps = 1.0e9;
  cfg.approach_cfg.hypervisor.migration_speed_Bps = 125e6;
  cfg.workload = cloud::WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 300;
  cfg.asyncwr.bytes_per_iter = 1 * kMiB;
  cfg.asyncwr.iter_compute_s = 1.0 / 6.0;
  cfg.asyncwr.file_offset = 256 * kMiB;  // must stay inside the 1 GiB image
  if (nonblocking) {
    cfg.cluster.network.fabric_Bps = net::kUnlimitedRate;
    cfg.cluster.nodes_per_switch = 0;
  } else {
    cfg.cluster.nodes_per_switch = 20;
    cfg.cluster.switch_uplink_Bps = 1.25e9;
  }
  return cfg;
}

// Two failure domains of up to 20 nodes each over the source racks (the
// first two 20-node racks at full size; halves of the fleet at smoke sizes).
std::string churn_spec(std::size_t nodes) {
  const std::size_t rack = std::min<std::size_t>(20, nodes / 2);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "churn:crash-mtbf=600,crash-mttr=8,degrade-mtbf=300,degrade-mttr=6,"
                "domain-mtbf=150,domain-mttr=8,factor=0.4,from=20,until=240"
                ";domains:rack0=0-%zu,rack1=%zu-%zu",
                rack - 1, rack, 2 * rack - 1);
  return buf;
}

cloud::ExperimentConfig make_config(const Workload& w, std::size_t n, std::uint32_t shards,
                                    std::uint64_t seed) {
  cloud::ExperimentConfig cfg = base_config(w.nonblocking);
  cfg.seed = seed;
  cfg.num_vms = n;
  cfg.shards = shards;
  if (!w.service) {
    cfg.num_migrations = n;
    cfg.num_destinations = n;
    cfg.first_migration_at = 20.0;
    cfg.migration_interval_s = w.stagger_s;
    cfg.cluster.num_nodes = 2 * n + 8;
    cfg.max_sim_time = 3600.0;
    return cfg;
  }
  cfg.num_destinations = std::max<std::size_t>(2, n / 2);
  cfg.num_migrations = 0;  // the scheduler owns the schedule
  cfg.cluster.num_nodes = n + cfg.num_destinations + 8;
  cfg.max_sim_time = 7200.0;
  char spec[200];
  std::snprintf(spec, sizeof(spec),
                "poisson:rate=%g,until=480,count=%zu,hi=0.25;sched:concurrent=%zu,capacity=2,"
                "groups=4,policy=least-loaded,preempt=1",
                static_cast<double>(n) / 100.0, n * 240 / 100, std::max<std::size_t>(2, n / 8));
  std::string err;
  if (!cloud::parse_scheduler_spec(spec, &cfg.scheduler, &err)) die(err);
  if (!sim::parse_fault_spec(churn_spec(cfg.cluster.num_nodes), &cfg.faults, &err)) die(err);
  cfg.audit = true;
  return cfg;
}

// --- JSON output ---------------------------------------------------------------

class Json {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    field(key, std::isfinite(v) ? buf : "null");  // JSON has no inf/nan
  }
  void str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    field(key, q + "\"");
  }
  void raw(const char* key, const std::string& v) { field(key, v); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
  }
  std::string body_;
};

struct Span {
  std::string track;  // one Chrome-trace track per layer probe
  std::string name;
  double start_us;
  double dur_us;
};

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Json j;
    j.str("track", spans[i].track);
    j.str("name", spans[i].name);
    j.num("start_us", spans[i].start_us);
    j.num("dur_us", spans[i].dur_us);
    out += (i ? ", " : "") + j.done();
  }
  return out + "]";
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- run mode ------------------------------------------------------------------

int cmd_run(const Workload& w, std::size_t n, std::uint32_t shards, std::uint64_t seed) {
  const Clock::time_point t_setup = Clock::now();
  cloud::Experiment exp(make_config(w, n, shards, seed));
  const Clock::time_point t_built = Clock::now();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t_run = Clock::now();
  const cloud::ExperimentResult r = exp.run();
  const Clock::time_point t_end = Clock::now();
  const double cpu_s = cpu_seconds() - cpu0;
  const double run_wall_s = seconds(t_run, t_end);
  const double setup_s = seconds(t_setup, t_built) + (run_wall_s - r.wall_ms / 1000.0);

  // Model outputs: what the correctness check compares. Engine counters
  // (events, epochs, frames) stay out so engine work can change freely.
  std::vector<double> downtimes;
  double memory_rounds = 0, pushed = 0, pulled = 0;
  std::uint64_t mig_done = 0, mig_abandoned = 0;
  // Mean migrations in flight over the migration window: the probes' shape.
  double busy_s = 0, first = r.sim_duration, last = 0;
  for (const core::MigrationRecord& m : r.migrations) {
    memory_rounds += m.memory_rounds;
    pushed += m.storage_chunks_pushed;
    pulled += m.storage_chunks_pulled;
    if (m.abandoned) ++mig_abandoned;
    if (m.abandoned || m.t_source_released <= 0) continue;
    ++mig_done;
    downtimes.push_back(m.downtime_s);
    busy_s += m.migration_time();
    first = std::min(first, m.t_request);
    last = std::max(last, m.t_source_released);
  }
  const double in_flight = last > first ? busy_s / (last - first) : 1.0;
  const double downtime_p50 = cloud::nearest_rank_percentile(downtimes, 0.50);
  const double downtime_p99 = cloud::nearest_rank_percentile(downtimes, 0.99);

  Json out;
  out.num("sim_s", r.sim_duration);
  out.num("completed", r.completed ? 1 : 0);
  out.num("avg_migration_s", r.avg_migration_time);
  out.num("total_migration_s", r.total_migration_time);
  out.num("max_downtime_s", r.max_downtime);
  out.num("downtime_p50_s", downtime_p50);
  out.num("downtime_p99_s", downtime_p99);
  for (std::size_t c = 0; c < net::kNumTrafficClasses; ++c) {
    const std::string key =
        std::string("traffic_") + net::traffic_class_name(static_cast<net::TrafficClass>(c));
    out.num(key.c_str(), r.traffic_bytes[c]);
  }
  out.num("bytes_written", r.bytes_written);
  out.num("app_execution_s", r.app_execution_time);
  out.num("migrations", static_cast<double>(r.migrations.size()));
  out.num("migrations_completed", static_cast<double>(mig_done));
  out.num("migrations_abandoned", static_cast<double>(mig_abandoned));
  out.num("recovery_p50_s", r.recovery.recovery_p50_s);
  out.num("recovery_p99_s", r.recovery.recovery_p99_s);
  out.num("queueing_p50_s", r.scheduler.queueing_p50_s);
  out.num("queueing_p99_s", r.scheduler.queueing_p99_s);
  out.num("requests", static_cast<double>(r.scheduler.requests));
  out.num("requests_completed", static_cast<double>(r.scheduler.completed));
  out.num("requests_rejected", static_cast<double>(r.scheduler.rejected));
  out.num("requests_abandoned", static_cast<double>(r.scheduler.abandoned));

  Json counts;
  counts.num("sim.events", static_cast<double>(r.engine_events));
  counts.num("sim.frames", static_cast<double>(r.engine_frames));
  counts.num("sim.frame_heap_allocs", static_cast<double>(r.engine_frame_heap_allocs));
  counts.num("net.flows", static_cast<double>(r.engine_flows));
  counts.num("net.settle_epochs", static_cast<double>(r.engine_recomputes));
  counts.num("net.components_solved", static_cast<double>(r.engine_components));
  counts.num("net.flows_resolved", static_cast<double>(r.engine_flows_resolved));
  counts.num("net.escalations", static_cast<double>(r.engine_escalations));
  counts.num("vm.memory_rounds", memory_rounds);
  counts.num("core.chunks_pushed", pushed);
  counts.num("core.chunks_pulled", pulled);
  counts.num("core.retries", r.recovery.total_retries);
  counts.num("core.salvaged_chunks", r.recovery.salvaged_chunks);
  counts.num("core.retransferred_gb", r.recovery.retransferred_bytes / 1e9);
  counts.num("workloads.bytes_written_gb", r.bytes_written / 1e9);
  counts.num("cloud.requests", static_cast<double>(r.scheduler.requests));
  counts.num("cloud.requests_completed", static_cast<double>(r.scheduler.completed));
  counts.num("cloud.requests_rejected", static_cast<double>(r.scheduler.rejected));
  counts.num("cloud.preemptions", static_cast<double>(r.scheduler.preemptions));
  counts.num("cloud.faults_injected", r.recovery.faults_injected);
  counts.num("cloud.correlated_events", r.recovery.correlated_events);
  counts.num("cloud.audit_checks", static_cast<double>(r.audit_checks));

  // An operation is a launched migration (fleet workloads) or an arrived
  // request (service workload); it fails when it was abandoned, rejected or
  // never released its source. A truncated or erroring run fails them all.
  const bool service = exp.config().scheduler.enabled();
  const std::uint64_t attempted =
      service ? r.scheduler.requests : static_cast<std::uint64_t>(exp.config().num_migrations);
  std::uint64_t failed = service ? r.scheduler.rejected + r.scheduler.abandoned
                                 : attempted - std::min<std::uint64_t>(attempted, mig_done);
  failed += r.audit_violations.size();
  if (!r.completed || !r.error.empty()) failed = attempted;
  failed = std::min(failed, attempted);

  const std::vector<Span> spans = {
      {"run", std::string("setup ") + w.name, since_start_us(t_setup),
       seconds(t_setup, t_built) * 1e6},
      {"run", std::string("run ") + w.name, since_start_us(t_run), run_wall_s * 1e6}};

  Json j;
  j.str("workload", w.name);
  j.num("n", static_cast<double>(n));
  j.num("seed", static_cast<double>(seed));
  j.num("shards_requested", shards);
  j.num("shards_used", r.shards_used);
  j.num("setup_s", setup_s);
  j.num("run_wall_s", run_wall_s);
  j.num("loop_wall_s", r.wall_ms / 1000.0);
  j.num("cpu_s", cpu_s);
  j.num("peak_rss_mb", peak_rss_mb());
  j.num("mean_in_flight", in_flight);
  j.num("attempted", static_cast<double>(attempted));
  j.num("failed", static_cast<double>(failed));
  j.num("audit_violations", static_cast<double>(r.audit_violations.size()));
  j.str("error", r.error);
  j.raw("outputs", out.done());
  j.raw("counts", counts.done());
  j.raw("spans", spans_json(spans));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

// --- probe mode ------------------------------------------------------------------

// What a probe knows about the workload it attributes: topology, guest and
// image geometry from the config; migrations in flight as measured by `run`
// (mean over the migration window). Live flows (two per in-flight migration:
// memory stream and chunk stream) and pending timers (four per guest) are
// derived, not observed inside the run.
struct Shape {
  cloud::ExperimentConfig cfg;  // normalized
  std::size_t live_flows;
  std::size_t migrating;
  std::size_t pending_timers;
  std::uint32_t modified_chunks;
};

Shape shape_of(const Workload& w, std::size_t n, std::uint64_t seed, double in_flight) {
  cloud::Experiment exp(make_config(w, n, w.shards, seed));
  const cloud::ExperimentConfig& cfg = exp.config();
  Shape s;
  s.cfg = cfg;
  s.migrating = std::max<std::size_t>(
      1, static_cast<std::size_t>(in_flight / std::max<std::uint32_t>(1, w.shards) + 0.5));
  s.live_flows = 2 * s.migrating;
  s.pending_timers = 4 * std::max<std::size_t>(1, cfg.num_vms / w.shards);
  const std::uint64_t written = cfg.asyncwr.iterations * cfg.asyncwr.bytes_per_iter;
  s.modified_chunks = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(written / cfg.cluster.image.chunk_bytes,
                              cfg.cluster.image.num_chunks()));
  return s;
}

class Probes {
 public:
  explicit Probes(const Shape& shape) : sh_(shape) {}

  template <class F>
  double timed(const char* track, const char* name, F&& body) {
    const Clock::time_point a = Clock::now();
    body();
    const Clock::time_point b = Clock::now();
    spans_.push_back({track, name, since_start_us(a), seconds(a, b) * 1e6});
    return seconds(a, b);
  }
  void metric(const char* key, double v) { metrics_.num(key, v); }
  std::string metrics_json() const { return metrics_.done(); }
  const std::vector<Span>& spans() const { return spans_; }

  // sim: fast lane post+step, ns per event.
  void sim_fast() {
    constexpr std::size_t kOps = 4'000'000, kBatch = 64;
    sim::Simulator s;
    std::uint64_t hits = 0;
    auto fn = [](void* a, void*) { ++*static_cast<std::uint64_t*>(a); };
    const double t = timed("sim", "Simulator::post+step", [&] {
      for (std::size_t i = 0; i < kOps; i += kBatch) {
        for (std::size_t j = 0; j < kBatch; ++j) s.post(fn, &hits);
        while (s.step()) {
        }
      }
    });
    if (hits != kOps) die("fast-lane probe lost events");
    metric("sim.fast_ns", t * 1e9 / kOps);
  }

  // sim: schedule+step with the pending timer set held at the workload's size.
  void sim_timer() {
    constexpr std::size_t kOps = 500'000;
    sim::Simulator s;
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> delay(0.0, 1.0);
    for (std::size_t i = 0; i < sh_.pending_timers; ++i) s.schedule(delay(rng), [] {});
    const double t = timed("sim", "Simulator::schedule+step", [&] {
      for (std::size_t i = 0; i < kOps; ++i) {
        s.schedule(delay(rng), [] {});
        s.step();
      }
    });
    if (s.pending_events() != sh_.pending_timers) die("timer probe drifted");
    metric("sim.timer_ns", t * 1e9 / kOps);
  }

  // sim: one run_epochs exchange round at 4 parties.
  void sim_shard_round() {
    constexpr std::uint32_t kParties = 4, kRounds = 2000;
    sim::ShardedSimulator sh(kParties);
    std::uint64_t delivered[kParties] = {};
    const double t = timed("sim", "ShardedSimulator::run_epochs", [&] {
      sh.run_epochs([&](std::uint32_t s) {
        for (std::uint32_t r = 0; r < kRounds; ++r) {
          sh.post(s, (s + 1) % kParties, r, r);
          delivered[s] += sh.exchange(s).size();
        }
      });
    });
    for (std::uint64_t d : delivered)
      if (d != kRounds) die("shard-round probe lost messages");
    metric("sim.shard_round_us", t * 1e6 / kRounds);
  }

  // net: host time per settle epoch with `background` long-lived flows live
  // on the workload's topology while one 256 KiB chunk flow joins and leaves
  // per epoch (burst = 1), or while `burst` chunk flows on the migration
  // pairs start together each round (the lockstep regime).
  double settle_us(std::size_t background, std::size_t burst, const char* name) {
    constexpr std::size_t kChunkEpochs = 4000, kMinRounds = 40;
    sim::Simulator s;
    vm::Cluster cluster(s, sh_.cfg.cluster);
    net::FlowNetwork& nw = cluster.network();
    const std::size_t nodes = nw.node_count();
    const std::size_t half = nodes / 2;
    // Background streams: source i -> destination half+i, as the fleet maps
    // VM i onto destination n+i.
    for (std::size_t i = 0; i < background; ++i)
      s.spawn(long_flow(&nw, static_cast<net::NodeId>(i % half),
                        static_cast<net::NodeId>(half + i % half)));
    // Start them (one latency hop) without letting virtual time reach their
    // far-future completions.
    s.run_until(1.0);
    if (nw.active_flows() != background) die("settle probe: background flows not live");
    const std::size_t rounds = std::max<std::size_t>(kMinRounds, kChunkEpochs / (2 * burst));
    std::size_t done = 0;
    const std::uint64_t e0 = nw.recompute_count();
    const double chunk = static_cast<double>(sh_.cfg.cluster.image.chunk_bytes);
    const double t = timed("net", name, [&] {
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t b = 0; b < burst; ++b) {
          // Burst chunks ride the migration pairs; a lone chunk takes the
          // last node pair so it starts a component of its own.
          const net::NodeId src =
              burst > 1 ? static_cast<net::NodeId>(b % half) : static_cast<net::NodeId>(half - 1);
          const net::NodeId dst = burst > 1 ? static_cast<net::NodeId>(half + b % half)
                                            : static_cast<net::NodeId>(nodes - 1);
          s.spawn(chunk_flow(&nw, src, dst, chunk, &done));
        }
        while (done < (r + 1) * burst && s.step()) {
        }
      }
    });
    const std::uint64_t epochs = nw.recompute_count() - e0;
    s.destroy_detached();
    if (done != rounds * burst || epochs == 0) die("settle probe stalled");
    return t * 1e6 / static_cast<double>(epochs);
  }

  void net_probes(bool oversub) {
    const std::size_t bg = sh_.live_flows;
    const double full = settle_us(bg, 1, "FlowNetwork settle (live flows)");
    const double sixteenth =
        settle_us(std::max<std::size_t>(1, bg / 16), 1, "FlowNetwork settle (live/16)");
    metric("net.settle_us", full);
    metric("net.settle_growth", full / sixteenth);
    metric("net.escalated_epoch_us",
           oversub ? settle_us(bg, sh_.migrating, "FlowNetwork escalated burst") : 0.0);
  }

  // storage: ChunkStore write/read awaiters over the whole image, and
  // PageCache::write_chunk with the workload's cache and dirty limit.
  void storage_probes() {
    constexpr int kStorePasses = 32, kCachePasses = 16;
    const storage::ImageConfig img = sh_.cfg.cluster.image;
    const std::uint32_t chunks = img.num_chunks();
    {
      sim::Simulator s;
      storage::Disk disk(s, sh_.cfg.cluster.disk);
      storage::ChunkStore st(s, disk, img, sh_.cfg.cluster.chunk_store);
      bool writes_done = false, reads_done = false;
      const double tw = timed("storage", "ChunkStore::write_chunk", [&] {
        s.spawn(store_writes(&st, chunks, kStorePasses, &writes_done));
        while (!writes_done && s.step()) {
        }
      });
      const double tr = timed("storage", "ChunkStore::read_chunk", [&] {
        s.spawn(store_reads(&st, chunks, kStorePasses, &reads_done));
        while (!reads_done && s.step()) {
        }
      });
      s.destroy_detached();
      if (!writes_done || !reads_done) die("chunk-store probe stalled");
      const double ops = static_cast<double>(chunks) * kStorePasses;
      metric("storage.chunk_write_ns", tw * 1e9 / ops);
      metric("storage.chunk_read_ns", tr * 1e9 / ops);
    }
    {
      sim::Simulator s;
      storage::Disk disk(s, sh_.cfg.cluster.disk);
      storage::ChunkStore st(s, disk, img, sh_.cfg.cluster.chunk_store);
      StoreBackend backend(st);
      storage::PageCache pc(s, backend, img, sh_.cfg.vm.cache);
      bool done = false;
      const double t = timed("storage", "PageCache::write_chunk", [&] {
        s.spawn(cache_writes(&pc, chunks, kCachePasses, &done));
        while (!done && s.step()) {
        }
      });
      const std::uint64_t writebacks = pc.writeback_ops();
      s.destroy_detached();
      if (!done || writebacks == 0) die("page-cache probe did not exercise write-back");
      metric("storage.cache_write_ns", t * 1e9 / (static_cast<double>(chunks) * kCachePasses));
    }
  }

  // vm: touch_range + take_dirty_round on the workload's guest geometry.
  void vm_probe() {
    constexpr std::size_t kRounds = 10000, kTouches = 64;
    vm::GuestMemory mem(sh_.cfg.vm.memory);
    std::mt19937_64 rng(11);
    const std::uint64_t span = sh_.cfg.vm.memory.ram_bytes - kMiB;
    std::uniform_int_distribution<std::uint64_t> off(0, span);
    std::uint64_t bytes = 0;
    const double t = timed("vm", "GuestMemory touch_range+take_dirty_round", [&] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < kTouches; ++i) mem.touch_range(off(rng), kMiB);
        bytes += mem.take_dirty_round();
      }
    });
    if (bytes == 0) die("dirty-round probe dirtied nothing");
    metric("vm.dirty_round_us", t * 1e6 / kRounds);
  }

  // core: one HybridSession (public constructor, as the session tests build
  // it) pushing the workload's modified-chunk set to an idle destination.
  void core_probe() {
    constexpr int kSessions = 8;
    vm::ClusterConfig ccfg = sh_.cfg.cluster;
    ccfg.num_nodes = 4;
    ccfg.nodes_per_switch = 0;
    double t = 0, pushed = 0;
    for (int i = 0; i < kSessions; ++i) {
      sim::Simulator s;
      vm::Cluster cluster(s, ccfg);
      core::MigrationManager mgr(s, cluster, /*home=*/0, /*vm_id=*/0);
      core::Metrics metrics;
      core::MigrationRecord& rec = metrics.new_migration(0);
      bool populated = false;
      s.spawn(populate(&mgr, sh_.modified_chunks, &populated));
      s.run();
      if (!populated) die("session probe could not populate the source");
      core::HybridSession session(s, cluster, &mgr, /*dst_node=*/1, rec);
      mgr.begin_migration(&session);
      t += timed("core", "HybridSession push", [&] {
        session.start();
        while (session.chunks_pushed() < sh_.modified_chunks && s.step()) {
        }
      });
      if (session.chunks_pushed() < sh_.modified_chunks) die("session probe stalled");
      pushed += static_cast<double>(session.chunks_pushed());
      s.destroy_detached();
    }
    metric("core.push_ns_per_chunk", t * 1e9 / pushed);
  }

  // cloud: plan_shards on the workload's (normalized) config.
  void cloud_probe() {
    constexpr int kReps = 200;
    std::uint32_t slices = 0;
    const double t = timed("cloud", "plan_shards", [&] {
      for (int i = 0; i < kReps; ++i) slices += cloud::plan_shards(sh_.cfg).shard_count();
    });
    if (slices < kReps) die("plan_shards returned no slices");
    metric("cloud.plan_ms", t * 1e3 / kReps);
  }

 private:
  class StoreBackend final : public storage::BlockBackend {
   public:
    explicit StoreBackend(storage::ChunkStore& st) : st_(st) {}
    sim::Task backend_read_chunk(storage::ChunkId c) override { co_await st_.read_chunk(c); }
    sim::Task backend_write_chunk(storage::ChunkId c) override { co_await st_.write_chunk(c); }

   private:
    storage::ChunkStore& st_;
  };

  static sim::Task long_flow(net::FlowNetwork* nw, net::NodeId a, net::NodeId b) {
    co_await nw->transfer(a, b, 1e18, net::TrafficClass::kMemory);
  }
  static sim::Task chunk_flow(net::FlowNetwork* nw, net::NodeId a, net::NodeId b, double bytes,
                              std::size_t* done) {
    co_await nw->transfer(a, b, bytes, net::TrafficClass::kStoragePush);
    ++*done;
  }
  static sim::Task store_writes(storage::ChunkStore* st, std::uint32_t n, int passes,
                               bool* done) {
    for (int p = 0; p < passes; ++p)
      for (storage::ChunkId c = 0; c < n; ++c) co_await st->write_chunk(c);
    *done = true;
  }
  static sim::Task store_reads(storage::ChunkStore* st, std::uint32_t n, int passes,
                              bool* done) {
    for (int p = 0; p < passes; ++p)
      for (storage::ChunkId c = 0; c < n; ++c) co_await st->read_chunk(c);
    *done = true;
  }
  static sim::Task cache_writes(storage::PageCache* pc, std::uint32_t n, int passes,
                                bool* done) {
    for (int p = 0; p < passes; ++p)
      for (storage::ChunkId c = 0; c < n; ++c) co_await pc->write_chunk(c);
    *done = true;
  }
  static sim::Task populate(core::MigrationManager* mgr, std::uint32_t n, bool* done) {
    for (storage::ChunkId c = 0; c < n; ++c) co_await mgr->backend_write_chunk(c);
    *done = true;
  }

  const Shape& sh_;
  Json metrics_;
  std::vector<Span> spans_;
};

int cmd_probe(const Workload& w, std::size_t n, std::uint64_t seed, double in_flight) {
  const Shape shape = shape_of(w, n, seed, in_flight);
  Probes p(shape);
  p.sim_fast();
  p.sim_timer();
  p.sim_shard_round();
  p.net_probes(!w.nonblocking);
  p.storage_probes();
  p.vm_probe();
  p.core_probe();
  p.cloud_probe();
  Json j;
  j.str("workload", w.name);
  j.num("probe_live_flows", static_cast<double>(shape.live_flows));
  j.num("probe_pending_timers", static_cast<double>(shape.pending_timers));
  j.num("probe_modified_chunks", shape.modified_chunks);
  j.raw("metrics", p.metrics_json());
  j.raw("spans", spans_json(p.spans()));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

int cmd_info() {
  Json j;
  j.str("build_type", HMBENCH_BUILD_TYPE);
  j.str("compiler", HMBENCH_COMPILER);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2)
    die("usage: hmbench run|probe|info --workload W --seed S [--n N] [--shards K] "
        "[--in-flight M]");
  const std::string mode = argv[1];
  if (mode == "info") return cmd_info();
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t n = 0;
  long shards = -1;
  double in_flight = 1.0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    char* end = nullptr;
    if (key == "--workload") {
      workload = argv[i + 1];
      continue;
    }
    if (key == "--in-flight") {
      in_flight = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0' || !(in_flight >= 1.0 && in_flight <= 1e5))
        die("--in-flight must be a number in [1, 1e5]");
      continue;
    }
    const unsigned long long v = std::strtoull(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0') die("bad number for " + key);
    if (key == "--seed") {
      seed = v;
      have_seed = true;
    } else if (key == "--n") {
      if (v < 2 || v > 4096) die("--n must be in [2, 4096]");
      n = static_cast<std::size_t>(v);
    } else if (key == "--shards") {
      if (v < 1 || v > 64) die("--shards must be in [1, 64]");
      shards = static_cast<long>(v);
    } else {
      die("unknown option " + key);
    }
  }
  if (workload.empty() || !have_seed) die("--workload and --seed are required");
  const Workload& w = find_workload(workload);
  if (n == 0) n = w.n;
  if (mode == "run")
    return cmd_run(w, n, shards > 0 ? static_cast<std::uint32_t>(shards) : w.shards, seed);
  if (mode == "probe") return cmd_probe(w, n, seed, in_flight);
  die("unknown mode " + mode);
}
