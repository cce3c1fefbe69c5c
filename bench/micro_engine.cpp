// Engine microbenchmarks (google-benchmark): raw DES event throughput,
// coroutine overhead, water-filling solver scaling, and chunk store ops.
// These bound how large a scenario the harness can simulate per wall-second.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "cloud/experiment.h"
#include "core/hybrid_migrator.h"
#include "net/flow_network.h"
#include "sim/random.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "storage/chunk_store.h"
#include "vm/memory.h"

namespace {

using namespace hm;

void BM_EventThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator s;
    int count = 0;
    for (int i = 0; i < n; ++i)
      s.schedule(static_cast<double>(i) * 1e-6, [&count] { ++count; });
    s.run();
    events += s.events_processed();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["events/sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventThroughput)->Arg(1000)->Arg(10000)->Arg(100000);

// Timer-queue cost at a fleet-like depth: ~500 pending self-rescheduling
// timers whose delays cycle through the fleet workloads' mix (0.1 ms to
// 100 ms: station service times, latencies, think times), so most pushes
// land out of timestamp order.
void BM_TimerMixedDelays(benchmark::State& state) {
  static constexpr double kDelays[] = {0.0001,     0.000985504, 0.00262144,
                                       0.00526625, 0.0667,      0.1};
  constexpr int kPending = 500;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator s;
    struct Mix {
      sim::Simulator& s;
      std::uint64_t left;
      std::uint32_t lcg = 12345;
      void hop() {
        if (left == 0) return;
        --left;
        lcg = lcg * 1664525u + 1013904223u;
        s.schedule(kDelays[(lcg >> 16) % 6], [this] { hop(); });
      }
    } mix{s, n};
    for (int i = 0; i < kPending; ++i) mix.hop();
    s.run();
    events += s.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.counters["events/sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimerMixedDelays)->Arg(200000);

// Timer cancellation churn: schedule/cancel pairs exercise handle overhead
// (previously weak_ptr lock, now generation-counter checks).
void BM_TimerCancelChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < n; ++i) {
      auto t = s.schedule(1.0, [] {});
      t.cancel();
      benchmark::DoNotOptimize(t.active());
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimerCancelChurn)->Arg(100000);

sim::Task ping_pong(sim::Simulator* s, int hops) {
  for (int i = 0; i < hops; ++i) co_await s->delay(1e-6);
}

void BM_CoroutineDelayLoop(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    s.spawn(ping_pong(&s, hops));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_CoroutineDelayLoop)->Arg(1000)->Arg(10000);

sim::Task one_transfer(net::FlowNetwork* net, net::NodeId a, net::NodeId b) {
  co_await net->transfer(a, b, 1e6, net::TrafficClass::kMemory);
}

void BM_FlowNetworkChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    net::FlowNetwork net(s, net::FlowNetworkConfig{8e9, 0.0});
    std::vector<net::NodeId> nodes;
    for (int i = 0; i < 32; ++i) nodes.push_back(net.add_node(117.5e6));
    for (int i = 0; i < flows; ++i)
      s.spawn(one_transfer(&net, nodes[i % 32], nodes[(i + 7) % 32]));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowNetworkChurn)->Arg(64)->Arg(256)->Arg(1024);

// Water-filling solver under chunk-burst churn: the BACKGROUND_PUSH pattern
// of the paper — waves of equal-size chunk transfers released at the same
// virtual instant across a shared fabric. Dominated by how many max-min
// solves the engine runs per wave (N without epoch batching, 1 with).
sim::Task burst_member(net::FlowNetwork* net, net::NodeId a, net::NodeId b) {
  co_await net->transfer(a, b, 256.0 * 1024, net::TrafficClass::kStoragePush);
}

void BM_WaterFill(benchmark::State& state) {
  const int flows_per_wave = static_cast<int>(state.range(0));
  constexpr int kWaves = 8;
  constexpr int kNodes = 32;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator s;
    net::FlowNetwork net(s, net::FlowNetworkConfig{8e9, 0.0});
    // Wave context behind one pointer: event callbacks fit a timer's two words.
    struct Wave {
      sim::Simulator& s;
      net::FlowNetwork& net;
      std::vector<net::NodeId> nodes;
      int flows;
      void release() {
        for (int i = 0; i < flows; ++i)
          s.spawn(burst_member(&net, nodes[i % kNodes], nodes[(i + 11) % kNodes]));
      }
    } wave{s, net, {}, flows_per_wave};
    for (int i = 0; i < kNodes; ++i) wave.nodes.push_back(net.add_node(117.5e6));
    for (int w = 0; w < kWaves; ++w) s.schedule(w * 0.5, [&wave] { wave.release(); });
    s.run();
    events += s.events_processed();
  }
  state.SetItemsProcessed(state.iterations() * flows_per_wave * kWaves);
  state.counters["events/sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WaterFill)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Zero-delay wakeup storm: N coroutines parked on a Notification are woken
// in waves. Every wakeup is one fast-lane event — the dominant event class
// in the scale sweeps — so this isolates raw dispatch cost for the path
// that used to pay slot allocation plus a std::function per wakeup.
sim::Task wakeup_waiter(sim::Notification* note, std::uint64_t* wakeups) {
  for (;;) {
    co_await note->wait();
    ++*wakeups;
  }
}

void BM_ZeroDelayWakeup(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  constexpr int kRounds = 200;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator s;
    sim::Notification note(s);
    std::uint64_t wakeups = 0;
    for (int w = 0; w < waiters; ++w) s.spawn(wakeup_waiter(&note, &wakeups));
    struct Driver {
      sim::Simulator& s;
      sim::Notification& note;
      int left;
      void tick() {
        note.notify_all();
        if (--left > 0) s.schedule(1e-6, [this] { tick(); });
      }
    } driver{s, note, kRounds};
    s.schedule(1e-6, [&driver] { driver.tick(); });
    s.run();
    events += s.events_processed();
    benchmark::DoNotOptimize(wakeups);
  }
  state.SetItemsProcessed(state.iterations() * waiters * kRounds);
  state.counters["events/sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZeroDelayWakeup)->Arg(64)->Arg(1024);

// Pure yield churn: K coroutines each re-queue themselves M times at the
// same virtual instant. Before the fast lane each hop was a clamp, a slot
// allocation and a fresh callable; now it is one ring push.
sim::Task yield_churner(sim::Simulator* s, int yields) {
  for (int i = 0; i < yields; ++i) co_await s->yield();
}

void BM_YieldChurn(benchmark::State& state) {
  const int coros = static_cast<int>(state.range(0));
  constexpr int kYields = 1000;
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < coros; ++i) s.spawn(yield_churner(&s, kYields));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * coros * kYields);
}
BENCHMARK(BM_YieldChurn)->Arg(1)->Arg(64);

// Incremental-solver churn: long-lived background flows (second arg: 1 000
// or 10 000, two per disjoint NIC pair) while short flows join and leave one
// pair at a time. With component-scoped solving (first arg 1) each churn
// epoch re-solves only the touched pair; the full-solve ablation (first arg
// 0) re-derives every rate each epoch. ns_per_epoch times the churn phase
// alone (setup and the initial background solve excluded): a flat value
// across background sizes is the per-epoch-cost target, modulo the
// per-instant byte advance, which still walks every live flow. The third
// arg picks the fabric: 0 unlimited, 1 finite but never binding (twice the
// NIC capacity of every flow that can be live), so the shared-constraint
// capacity certificate, not a usage walk, must keep its rows level with
// the unlimited ones.
void BM_IncrementalSolveChurn(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const int pairs = static_cast<int>(state.range(1)) / 2;
  const double fabric = state.range(2) != 0
                            ? 2.0 * static_cast<double>(state.range(1) + 4) * 117.5e6
                            : net::kUnlimitedRate;
  constexpr int kChurn = 256;
  std::uint64_t resolved = 0, epochs = 0, churn_epochs = 0;
  double churn_ns = 0.0;
  for (auto _ : state) {
    sim::Simulator s;
    net::FlowNetwork net(s, net::FlowNetworkConfig{fabric, 0.0, incremental});
    std::vector<net::NodeId> src, dst;
    for (int p = 0; p < pairs; ++p) {
      src.push_back(net.add_node(117.5e6));
      dst.push_back(net.add_node(117.5e6));
    }
    for (int p = 0; p < pairs; ++p)
      for (int k = 0; k < 2; ++k)
        s.spawn([](net::FlowNetwork* n, net::NodeId a, net::NodeId b) -> sim::Task {
          co_await n->transfer(a, b, 1e18, net::TrafficClass::kMemory);
        }(&net, src[p], dst[p]));
    struct Churn {
      sim::Simulator& s;
      net::FlowNetwork& net;
      std::vector<net::NodeId>& src;
      std::vector<net::NodeId>& dst;
      int pairs;
      void kick(int i) {
        s.spawn([](net::FlowNetwork* n, net::NodeId a, net::NodeId b) -> sim::Task {
          co_await n->transfer(a, b, 1e6, net::TrafficClass::kStoragePush);
        }(&net, src[i % pairs], dst[i % pairs]));
      }
    } churn{s, net, src, dst, pairs};
    for (int i = 0; i < kChurn; ++i) {
      s.schedule(1.0 + i, [c = &churn, i] { c->kick(i); });
    }
    s.run_until(0.5);  // background started and solved
    const std::uint64_t epochs_before = net.recompute_count();
    const auto t0 = std::chrono::steady_clock::now();
    s.run_until(kChurn + 10.0);
    churn_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0).count();
    churn_epochs += net.recompute_count() - epochs_before;
    resolved += net.touched_flow_count();
    epochs += net.recompute_count();
  }
  state.SetItemsProcessed(state.iterations() * kChurn);
  state.counters["flows_resolved_per_epoch"] =
      epochs ? static_cast<double>(resolved) / static_cast<double>(epochs) : 0.0;
  state.counters["ns_per_epoch"] =
      churn_epochs ? churn_ns / static_cast<double>(churn_epochs) : 0.0;
}
BENCHMARK(BM_IncrementalSolveChurn)
    ->ArgNames({"incremental", "background", "fabric"})
    ->Args({0, 1000, 0})
    ->Args({1, 1000, 0})
    ->Args({1, 1000, 1})
    ->Args({0, 10000, 0})
    ->Args({1, 10000, 0})
    ->Args({1, 10000, 1})
    ->Unit(benchmark::kMillisecond);

// Dirty-bitmap round scan: one pre-copy round = touch a working set, then
// snapshot-and-clear the dirty map. Sparse (1% of pages) exercises the
// word-skip path; dense (every page) the popcount/memset path. The seed's
// byte-per-page vector walked all pages in both cases.
void BM_DirtyRoundScan(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  vm::GuestMemoryConfig cfg;  // 4 GiB / 64 KiB pages = 65536 pages
  vm::GuestMemory mem(cfg);
  sim::Rng rng(42);
  const std::uint64_t page = cfg.page_bytes;
  const std::uint64_t pages = mem.pages();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    if (dense) {
      mem.touch_range(0, cfg.ram_bytes);
    } else {
      for (std::uint64_t i = 0; i < pages / 100; ++i)
        mem.touch_range(rng.uniform(pages) * page, 1);
    }
    bytes += mem.take_dirty_round();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pages));
}
BENCHMARK(BM_DirtyRoundScan)->Arg(0)->Arg(1);

// Per-chunk data-path microbenches: the push leg (read -> transfer -> write)
// and the pull leg (request/response round trip + disk legs) that dominate
// wall time once the solver is incremental. These isolate coroutine-frame
// and allocator overhead per chunk operation.
sim::Task push_path_chain(net::FlowNetwork* net, storage::ChunkStore* src,
                          storage::ChunkStore* dst, net::NodeId a, net::NodeId b, int n) {
  const double chunk = src->image().chunk_bytes;
  for (int i = 0; i < n; ++i) {
    const auto c = static_cast<storage::ChunkId>(i % src->num_chunks());
    co_await src->read_chunk(c);
    co_await net->transfer(a, b, chunk, net::TrafficClass::kStoragePush);
    co_await dst->write_chunk(c);
  }
}

sim::Task seed_chunks(storage::ChunkStore* store, int n) {
  for (int i = 0; i < n; ++i)
    co_await store->write_chunk(static_cast<storage::ChunkId>(i));
}

void BM_TransferPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    net::FlowNetwork net(s, net::FlowNetworkConfig{8e9, 100e-6});
    const net::NodeId a = net.add_node(117.5e6);
    const net::NodeId b = net.add_node(117.5e6);
    storage::Disk disk_a(s, storage::DiskConfig{55e6, 0.0});
    storage::Disk disk_b(s, storage::DiskConfig{55e6, 0.0});
    const storage::ImageConfig img{64 * storage::kMiB,
                                   256 * static_cast<std::uint32_t>(1024)};
    storage::ChunkStore src(s, disk_a, img);
    storage::ChunkStore dst(s, disk_b, img);
    s.spawn(seed_chunks(&src, static_cast<int>(src.num_chunks())));
    s.run();
    s.spawn(push_path_chain(&net, &src, &dst, a, b, n));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TransferPath)->Arg(10000)->Unit(benchmark::kMillisecond);

sim::Task pull_path_chain(net::FlowNetwork* net, storage::ChunkStore* src,
                          storage::ChunkStore* dst, net::NodeId src_node,
                          net::NodeId dst_node, int n) {
  const double chunk = src->image().chunk_bytes;
  for (int i = 0; i < n; ++i) {
    const auto c = static_cast<storage::ChunkId>(i % src->num_chunks());
    // The paper's pull leg: control request, source read, payload, local write.
    co_await net->transfer(dst_node, src_node, 256.0, net::TrafficClass::kControl);
    co_await src->read_chunk(c);
    co_await net->transfer(src_node, dst_node, chunk, net::TrafficClass::kStoragePull);
    co_await dst->write_chunk(c);
  }
}

void BM_PullPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    net::FlowNetwork net(s, net::FlowNetworkConfig{8e9, 100e-6});
    const net::NodeId a = net.add_node(117.5e6);
    const net::NodeId b = net.add_node(117.5e6);
    storage::Disk disk_a(s, storage::DiskConfig{55e6, 0.0});
    storage::Disk disk_b(s, storage::DiskConfig{55e6, 0.0});
    const storage::ImageConfig img{64 * storage::kMiB,
                                   256 * static_cast<std::uint32_t>(1024)};
    storage::ChunkStore src(s, disk_a, img);
    storage::ChunkStore dst(s, disk_b, img);
    s.spawn(seed_chunks(&src, static_cast<int>(src.num_chunks())));
    s.run();
    s.spawn(pull_path_chain(&net, &src, &dst, a, b, n));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PullPath)->Arg(10000)->Unit(benchmark::kMillisecond);

sim::Task write_chunks(storage::ChunkStore* store, int n) {
  for (int i = 0; i < n; ++i)
    co_await store->write_chunk(static_cast<storage::ChunkId>(i % store->num_chunks()));
}

void BM_ChunkStoreWrites(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    storage::Disk disk(s, storage::DiskConfig{55e6, 0.0});
    storage::ChunkStore store(s, disk,
                              storage::ImageConfig{1 * storage::kGiB,
                                                   256 * static_cast<std::uint32_t>(1024)});
    s.spawn(write_chunks(&store, n));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChunkStoreWrites)->Arg(1000)->Arg(10000);

// Data-path locality probe: N HybridSessions, each on its own node pair of
// a non-blocking core, push the same number of chunks at once, so the event
// loop interleaves them round-robin. The per-chunk work is identical at
// every N; only the per-session state the loop cycles through (replicas,
// LRU slabs, bitmaps, counters) grows. ns/chunk that climbs with N is
// footprint falling out of cache. Only the push phase is timed.
sim::Task populate_replica(core::MigrationManager* mgr, std::uint32_t n) {
  for (storage::ChunkId c = 0; c < n; ++c) co_await mgr->backend_write_chunk(c);
}

void BM_SessionRoundRobin(benchmark::State& state) {
  constexpr std::uint32_t kChunksPerSession = 64;
  const auto n = static_cast<std::size_t>(state.range(0));
  double timed_s = 0;
  std::uint64_t pushed = 0;
  for (auto _ : state) {
    sim::Simulator s;
    vm::ClusterConfig ccfg;
    ccfg.num_nodes = 2 * n;
    ccfg.image = storage::ImageConfig{1 * storage::kGiB, 256 * 1024};
    vm::Cluster cluster(s, ccfg);
    core::Metrics metrics;
    std::vector<std::unique_ptr<core::MigrationManager>> mgrs;
    std::vector<std::unique_ptr<core::HybridSession>> sessions;
    for (std::size_t i = 0; i < n; ++i) {
      mgrs.push_back(std::make_unique<core::MigrationManager>(
          s, cluster, static_cast<net::NodeId>(2 * i), static_cast<int>(i)));
      s.spawn(populate_replica(mgrs.back().get(), kChunksPerSession));
    }
    s.run();
    for (std::size_t i = 0; i < n; ++i) {
      sessions.push_back(std::make_unique<core::HybridSession>(
          s, cluster, mgrs[i].get(), static_cast<net::NodeId>(2 * i + 1),
          metrics.new_migration(static_cast<int>(i))));
      mgrs[i]->begin_migration(sessions.back().get());
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& session : sessions) session->start();
    s.run();
    const double dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    state.SetIterationTime(dt);
    timed_s += dt;
    for (const auto& session : sessions) {
      if (session->chunks_pushed() != kChunksPerSession) {
        state.SkipWithError("a session did not push its whole modified set");
        return;
      }
      pushed += session->chunks_pushed();
    }
    s.destroy_detached();  // parked push tasks reference the sessions
  }
  state.counters["ns/chunk"] = timed_s * 1e9 / static_cast<double>(pushed);
}
BENCHMARK(BM_SessionRoundRobin)->Arg(1)->Arg(64)->Arg(1024)->UseManualTime();

// Epoch rendezvous cost: N shard threads spinning through the EpochBarrier
// + mailbox exchange (one small message to every peer per epoch).
void BM_ShardBarrier(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  constexpr int kEpochsPerIter = 200;
  std::uint64_t epochs = 0;
  for (auto _ : state) {
    sim::ShardedSimulator sim(shards);
    const auto st = sim.run_epochs([&](std::uint32_t s) {
      for (int e = 0; e < kEpochsPerIter; ++e) {
        for (std::uint32_t to = 0; to < shards; ++to)
          if (to != s) sim.post(s, to, static_cast<double>(e), s);
        benchmark::DoNotOptimize(sim.exchange(s).size());
      }
    });
    epochs += st.epochs;
  }
  state.SetItemsProcessed(state.iterations() * kEpochsPerIter);
  state.counters["epochs/sec"] =
      benchmark::Counter(static_cast<double>(epochs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardBarrier)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

// 64-VM AsyncWR migration fleet for the sweep-point benchmark below.
cloud::ExperimentConfig sharded_sweep_config() {
  using storage::kMiB;
  cloud::ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.image = storage::ImageConfig{256 * kMiB, 256 * static_cast<std::uint32_t>(1024)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.cluster.network.fabric_Bps = net::kUnlimitedRate;
  cfg.vm.memory.ram_bytes = 256 * kMiB;
  cfg.vm.memory.page_bytes = 256 * 1024;
  cfg.vm.memory.base_used_bytes = 64 * kMiB;
  cfg.vm.cache.capacity_bytes = 192 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 64 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.workload = cloud::WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 120;
  cfg.asyncwr.file_offset = 64 * kMiB;
  cfg.num_vms = 64;
  cfg.num_migrations = 64;
  cfg.num_destinations = 64;
  cfg.first_migration_at = 5.0;
  cfg.migration_interval_s = 0.05;
  return cfg;
}

// One decomposable sweep point (staggered AsyncWR fleet on a non-blocking
// core, 64 one-VM slices) on 1/2/4/8 worker threads: the multicore speedup
// curve for the independent-slice mode, result byte-identical across all
// arguments.
void BM_ShardedSweepPoint(benchmark::State& state) {
  cloud::ExperimentConfig cfg = sharded_sweep_config();
  cfg.shards = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    cloud::Experiment exp(cfg);
    const cloud::ExperimentResult res = exp.run();
    events += res.engine_events;
    benchmark::DoNotOptimize(res.sim_duration);
  }
  state.counters["events/sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedSweepPoint)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
