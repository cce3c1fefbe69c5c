// Continuous-arrival scheduler: spec parsing, arrival-process determinism,
// placement-map constraint bookkeeping, and the queue-discipline invariants
// cloud/scheduler.h promises — strict priority, no starvation of admitted
// requests, preemption that restores salvaged state, and capacity/
// anti-affinity constraints that hold at every instant of the reconstructed
// occupancy timeline under randomized configs.
#include "cloud/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/experiment.h"
#include "cloud/middleware.h"
#include "cloud/placement.h"
#include "sim/arrival_process.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "vm/compute_node.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

// --------------------------------------------------------------------------
// Spec parsing

TEST(ArrivalSpecParse, PoissonKeysRoundTrip) {
  sim::ArrivalSpec s;
  std::string err;
  ASSERT_TRUE(sim::parse_arrival_spec("poisson:rate=0.5,from=10,until=100,hi=0.25",
                                      &s, &err))
      << err;
  EXPECT_EQ(s.kind, sim::ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(s.rate, 0.5);
  EXPECT_DOUBLE_EQ(s.from, 10.0);
  EXPECT_DOUBLE_EQ(s.until, 100.0);
  EXPECT_DOUBLE_EQ(s.hi_share, 0.25);
  EXPECT_TRUE(s.enabled());
}

TEST(ArrivalSpecParse, OptionalArrivalsPrefixAndNone) {
  sim::ArrivalSpec s;
  std::string err;
  ASSERT_TRUE(sim::parse_arrival_spec("arrivals:poisson:rate=1,count=5", &s, &err));
  EXPECT_EQ(s.kind, sim::ArrivalKind::kPoisson);
  ASSERT_TRUE(sim::parse_arrival_spec("none", &s, &err));
  EXPECT_FALSE(s.enabled());
}

TEST(ArrivalSpecParse, RejectsUnboundedStreams) {
  sim::ArrivalSpec s;
  std::string err;
  EXPECT_FALSE(sim::parse_arrival_spec("poisson:rate=1", &s, &err));
  EXPECT_NE(err.find("unbounded"), std::string::npos) << err;
  EXPECT_FALSE(sim::parse_arrival_spec("diurnal:base=1,amp=0.5", &s, &err));
  EXPECT_NE(err.find("unbounded"), std::string::npos) << err;
}

TEST(ArrivalSpecParse, RejectsBadKeysAndValues) {
  sim::ArrivalSpec s;
  std::string err;
  EXPECT_FALSE(sim::parse_arrival_spec("poisson:rate=1,until=10,bogus=2", &s, &err));
  EXPECT_FALSE(sim::parse_arrival_spec("poisson:rate=-1,until=10", &s, &err));
  EXPECT_FALSE(sim::parse_arrival_spec("poisson:rate=1,until=10,hi=1.5", &s, &err));
  EXPECT_FALSE(sim::parse_arrival_spec("diurnal:base=1,until=10,amp=2", &s, &err));
  EXPECT_FALSE(sim::parse_arrival_spec("poisson:rate=1,until=10,from=20", &s, &err));
  EXPECT_FALSE(sim::parse_arrival_spec("warp:rate=1", &s, &err));
}

TEST(ArrivalSpecParse, TraceSortsInstantsAndRejectsEmpty) {
  sim::ArrivalSpec s;
  std::string err;
  ASSERT_TRUE(sim::parse_arrival_spec("trace:5,1,3,hi=1", &s, &err)) << err;
  EXPECT_EQ(s.kind, sim::ArrivalKind::kTrace);
  ASSERT_EQ(s.times.size(), 3u);
  EXPECT_DOUBLE_EQ(s.times[0], 1.0);
  EXPECT_DOUBLE_EQ(s.times[2], 5.0);
  EXPECT_DOUBLE_EQ(s.hi_share, 1.0);
  EXPECT_FALSE(sim::parse_arrival_spec("trace:hi=0.5", &s, &err));
  EXPECT_FALSE(sim::parse_arrival_spec("trace:1,-3", &s, &err));
}

TEST(SchedulerSpecParse, SchedKnobsRoundTrip) {
  SchedulerConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_scheduler_spec(
      "poisson:rate=0.5,until=60,hi=0.25"
      ";sched:concurrent=3,capacity=2,groups=4,policy=round-robin,preempt=0,"
      "attempts=5",
      &cfg, &err))
      << err;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.max_concurrent, 3u);
  EXPECT_EQ(cfg.placement.capacity, 2u);
  EXPECT_EQ(cfg.placement.affinity_groups, 4u);
  EXPECT_EQ(cfg.placement.policy, PlacementPolicy::kRoundRobin);
  EXPECT_FALSE(cfg.preempt);
  EXPECT_EQ(cfg.max_attempts, 5);
}

TEST(SchedulerSpecParse, RejectsBadSchedKeys) {
  SchedulerConfig cfg;
  std::string err;
  EXPECT_FALSE(parse_scheduler_spec("poisson:rate=1,until=9;sched:concurrent=0",
                                    &cfg, &err));
  EXPECT_FALSE(parse_scheduler_spec("poisson:rate=1,until=9;sched:preempt=2",
                                    &cfg, &err));
  EXPECT_FALSE(parse_scheduler_spec("poisson:rate=1,until=9;sched:policy=magic",
                                    &cfg, &err));
  EXPECT_FALSE(parse_scheduler_spec("poisson:rate=1,until=9;sched:bogus=1",
                                    &cfg, &err));
  // A malformed arrival part fails the whole spec.
  EXPECT_FALSE(parse_scheduler_spec("poisson:rate=1;sched:concurrent=2", &cfg, &err));
}

// --------------------------------------------------------------------------
// Arrival-process determinism

std::vector<sim::Arrival> drain_process(const sim::ArrivalSpec& spec,
                                        std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::ArrivalProcess p(spec, rng);
  std::vector<sim::Arrival> out;
  while (auto a = p.next()) out.push_back(*a);
  return out;
}

sim::ArrivalSpec spec_of(const std::string& s) {
  sim::ArrivalSpec spec;
  std::string err;
  EXPECT_TRUE(sim::parse_arrival_spec(s, &spec, &err)) << err;
  return spec;
}

TEST(ArrivalProcess, PoissonIsDeterministicMonotoneAndWindowed) {
  const sim::ArrivalSpec spec = spec_of("poisson:rate=0.5,from=5,until=200,hi=0.3");
  const auto a = drain_process(spec, 42);
  const auto b = drain_process(spec, 42);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);  // bit-identical draws
    EXPECT_EQ(a[i].high_priority, b[i].high_priority);
    EXPECT_GE(a[i].at, 5.0);
    EXPECT_LT(a[i].at, 200.0);
    if (i > 0) EXPECT_GE(a[i].at, a[i - 1].at);
  }
  // A different seed moves the instants.
  const auto c = drain_process(spec, 43);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a[0].at, c[0].at);
}

TEST(ArrivalProcess, PriorityShareRelabelsWithoutMovingInstants) {
  const sim::ArrivalSpec lo = spec_of("poisson:rate=0.5,until=200,hi=0");
  const sim::ArrivalSpec hi = spec_of("poisson:rate=0.5,until=200,hi=1");
  const sim::ArrivalSpec mid = spec_of("poisson:rate=0.5,until=200,hi=0.5");
  const auto a = drain_process(lo, 7);
  const auto b = drain_process(hi, 7);
  const auto c = drain_process(mid, 7);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  std::size_t n_hi = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);  // the separate prio stream never moves time
    EXPECT_EQ(a[i].at, c[i].at);
    EXPECT_FALSE(a[i].high_priority);
    EXPECT_TRUE(b[i].high_priority);
    n_hi += c[i].high_priority ? 1 : 0;
  }
  EXPECT_GT(n_hi, 0u);
  EXPECT_LT(n_hi, c.size());
}

TEST(ArrivalProcess, DiurnalThinningIsDeterministicAndBounded) {
  const sim::ArrivalSpec spec =
      spec_of("diurnal:base=0.5,amp=0.8,period=100,phase=25,until=400");
  const auto a = drain_process(spec, 11);
  const auto b = drain_process(spec, 11);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_LT(a[i].at, 400.0);
    if (i > 0) EXPECT_GE(a[i].at, a[i - 1].at);
  }
}

TEST(ArrivalProcess, TraceReplaysWindowVerbatimAndCountCaps) {
  const sim::ArrivalSpec spec = spec_of("trace:1,2,3,4,5,6,from=2.5,until=5.5");
  const auto a = drain_process(spec, 3);
  ASSERT_EQ(a.size(), 3u);  // 3, 4, 5
  EXPECT_DOUBLE_EQ(a[0].at, 3.0);
  EXPECT_DOUBLE_EQ(a[2].at, 5.0);

  const sim::ArrivalSpec capped = spec_of("poisson:rate=2,until=1000,count=7");
  EXPECT_EQ(drain_process(capped, 5).size(), 7u);
}

// --------------------------------------------------------------------------
// PlacementMap constraint bookkeeping

TEST(Placement, CapacityCountsResidentsAndReservations) {
  PlacementConfig cfg;
  cfg.capacity = 1;
  PlacementMap m(cfg, /*first_dst=*/100, /*num_dsts=*/2);
  ASSERT_TRUE(m.feasible(0));
  EXPECT_EQ(m.choose(0), 100);
  m.reserve(100, 0);
  EXPECT_EQ(m.reserved(100), 1u);
  EXPECT_EQ(m.choose(1), 101);
  m.reserve(101, 1);
  EXPECT_FALSE(m.feasible(2));  // both nodes at capacity
  m.commit(100, 0);             // reservation becomes residency
  EXPECT_EQ(m.residents(100), 1u);
  EXPECT_EQ(m.reserved(100), 0u);
  EXPECT_FALSE(m.feasible(2));  // residents count against capacity too
}

TEST(Placement, AntiAffinityBlocksSameGroupOnly) {
  PlacementConfig cfg;
  cfg.affinity_groups = 2;  // group(vm) = vm % 2
  PlacementMap m(cfg, 100, 1);
  m.reserve(100, 0);
  EXPECT_FALSE(m.feasible(2));  // same group as VM 0
  EXPECT_TRUE(m.feasible(1));   // other group is fine
  m.release(100, 0);
  EXPECT_TRUE(m.feasible(2));
}

TEST(Placement, RoundRobinRotatesLeastLoadedBreaksTiesLow) {
  PlacementConfig rr;
  rr.policy = PlacementPolicy::kRoundRobin;
  PlacementMap a(rr, 10, 3);
  EXPECT_EQ(a.choose(0), 10);
  EXPECT_EQ(a.choose(1), 11);
  EXPECT_EQ(a.choose(2), 12);
  EXPECT_EQ(a.choose(3), 10);  // wrapped

  PlacementConfig ll;
  ll.policy = PlacementPolicy::kLeastLoaded;
  PlacementMap b(ll, 10, 3);
  EXPECT_EQ(b.choose(0), 10);  // all empty: lowest id
  b.reserve(10, 0);
  b.reserve(11, 1);
  EXPECT_EQ(b.choose(2), 12);  // the only empty node
  b.reserve(12, 2);
  b.commit(10, 0);
  b.reserve(10, 3);  // node 10: 1 resident + 1 reservation
  EXPECT_EQ(b.choose(4), 11);  // 11 and 12 tie at 1; lowest id wins
}

TEST(Placement, CommitVacatesPreviousPoolResidency) {
  PlacementMap m(PlacementConfig{}, 10, 2);
  m.reserve(10, 0);
  m.commit(10, 0);
  EXPECT_EQ(m.residents(10), 1u);
  // VM 0 migrates again: its current pool node is excluded from choice.
  EXPECT_EQ(m.choose(0), 11);
  m.reserve(11, 0);
  m.commit(11, 0);
  EXPECT_EQ(m.residents(10), 0u);  // old residency vacated
  EXPECT_EQ(m.residents(11), 1u);

  // A one-node pool holding the VM has nowhere else to put it.
  PlacementMap one(PlacementConfig{}, 10, 1);
  one.reserve(10, 0);
  one.commit(10, 0);
  EXPECT_FALSE(one.feasible(0));
  EXPECT_TRUE(one.feasible(1));
}

// --------------------------------------------------------------------------
// End-to-end scheduler rig: a small cluster driven to drain.

vm::ClusterConfig rig_cluster(std::uint64_t seed, std::size_t n_vms,
                              std::uint32_t n_dsts, bool incremental) {
  vm::ClusterConfig c;
  c.num_nodes = n_vms + n_dsts + 2;
  c.image = storage::ImageConfig{64 * kMiB, static_cast<std::uint32_t>(kMiB)};
  c.disk = storage::DiskConfig{55e6, 0.0};
  c.network.incremental = incremental;
  c.seed = seed;
  return c;
}

vm::VmConfig rig_vm() {
  vm::VmConfig v;
  v.memory.ram_bytes = 64 * kMiB;
  v.memory.page_bytes = 256 * storage::kKiB;
  v.memory.base_used_bytes = 16 * kMiB;
  v.cache.capacity_bytes = 32 * kMiB;
  v.cache.dirty_limit_bytes = 16 * kMiB;
  return v;
}

/// Idle guests never dirty their image, which would leave the hybrid
/// sessions with an empty push set; a short burst of direct replica writes
/// gives every migration real chunk content (and the salvage path something
/// to save).
sim::Task dirty_chunks(core::MigrationManager* mgr, std::uint32_t n) {
  for (std::uint32_t c = 0; c < n; ++c)
    co_await mgr->replica().write_chunk(static_cast<storage::ChunkId>(c));
}

struct Rig {
  std::size_t n_vms;
  std::uint32_t n_dsts;
  sim::Simulator sim;
  vm::Cluster cluster;
  Middleware mw;
  sim::WaitGroup done;
  std::unique_ptr<Scheduler> sched;

  explicit Rig(const std::string& spec, std::uint64_t seed = 42,
               std::size_t vms = 6, std::uint32_t dsts = 3, bool incremental = true)
      : n_vms(vms),
        n_dsts(dsts),
        cluster(sim, rig_cluster(seed, vms, dsts, incremental)),
        mw(sim, cluster, core::Approach::kHybrid),
        done(sim) {
    for (std::size_t i = 0; i < n_vms; ++i)
      mw.deploy(static_cast<net::NodeId>(i), rig_vm(), static_cast<int>(i));
    for (std::size_t i = 0; i < n_vms; ++i)
      sim.spawn(dirty_chunks(mw.manager_of(mw.vm(i)), 24));
    SchedulerConfig cfg;
    std::string err;
    EXPECT_TRUE(parse_scheduler_spec(spec, &cfg, &err)) << err;
    done.add();
    sched = std::make_unique<Scheduler>(sim, cluster, mw, cfg,
                                        static_cast<net::NodeId>(n_vms), n_dsts,
                                        &done);
    sched->start();
  }

  /// Drive to drain; false if the virtual-time safety stop tripped.
  bool run(double max_t = 3600.0) {
    while (!sched->drained()) {
      if (!sim.step()) return sched->drained();
      if (sim.now() > max_t) return false;
    }
    return true;
  }
};

/// Every request is in exactly one terminal state after drain, and its
/// timestamps are ordered. This is the no-starvation property: any admitted
/// (dispatched) request finished — nothing is parked in a queue forever.
void expect_terminal_accounting(const Rig& rig) {
  const SchedulerStats s = rig.sched->stats();
  EXPECT_EQ(s.requests, rig.sched->requests().size());
  EXPECT_EQ(s.completed + s.abandoned + s.rejected, s.requests);
  EXPECT_EQ(s.dispatched, s.completed + s.abandoned);
  EXPECT_EQ(rig.sched->running(), 0u);
  EXPECT_EQ(rig.sched->queued(), 0u);
  for (const RequestRecord& r : rig.sched->requests()) {
    const int terminal = (r.t_completed >= 0 ? 1 : 0) + (r.abandoned ? 1 : 0) +
                         (r.rejected ? 1 : 0);
    EXPECT_EQ(terminal, 1) << "request " << r.id;
    if (r.rejected) {
      EXPECT_LT(r.t_dispatched, 0) << "request " << r.id;
      EXPECT_EQ(r.migration, nullptr) << "request " << r.id;
    } else {
      EXPECT_GE(r.t_dispatched, r.t_arrival) << "request " << r.id;
      ASSERT_NE(r.migration, nullptr) << "request " << r.id;
    }
    if (r.t_completed >= 0) EXPECT_GE(r.t_completed, r.t_dispatched);
  }
}

TEST(Scheduler, DrainsEveryRequestToATerminalState) {
  Rig rig("poisson:rate=0.4,until=60,hi=0.3;sched:concurrent=2");
  ASSERT_TRUE(rig.run());
  const SchedulerStats s = rig.sched->stats();
  EXPECT_GT(s.requests, 5u);
  EXPECT_GT(s.completed, 0u);
  EXPECT_EQ(s.abandoned, 0u);  // no faults in this rig
  EXPECT_EQ(s.rejected, 0u);   // unconstrained placement
  expect_terminal_accounting(rig);
  EXPECT_GE(s.peak_running, 1u);
  EXPECT_LE(s.peak_running, 2u);  // the admission bound held
  EXPECT_LE(s.queueing_p50_s, s.queueing_p99_s);
  EXPECT_LE(s.queueing_p99_s, s.queueing_p999_s);
  EXPECT_LE(s.queueing_p999_s, s.max_queueing_delay_s);
}

TEST(Scheduler, StrictPriorityIsNeverOvertaken) {
  // concurrent=1 forces real queueing; preemption off isolates dispatch
  // order (a preempted requeue re-dispatches from the low queue by design).
  Rig rig("poisson:rate=1.0,until=40,hi=0.5;sched:concurrent=1,preempt=0");
  ASSERT_TRUE(rig.run());
  expect_terminal_accounting(rig);
  const auto& reqs = rig.sched->requests();
  std::size_t n_hi = 0, n_lo = 0;
  for (const RequestRecord& h : reqs) {
    if (!h.high_priority) continue;
    ++n_hi;
    for (const RequestRecord& l : reqs) {
      if (l.high_priority || l.t_dispatched < 0) continue;
      // A high request already waiting when a low one was admitted must
      // itself have been admitted no later (strict inter-class priority).
      if (h.t_arrival < l.t_dispatched) {
        ASSERT_GE(h.t_dispatched, 0) << "high " << h.id << " starved";
        EXPECT_LE(h.t_dispatched, l.t_dispatched)
            << "low " << l.id << " overtook high " << h.id;
      }
    }
  }
  for (const RequestRecord& l : reqs) n_lo += l.high_priority ? 0 : 1;
  ASSERT_GT(n_hi, 0u);
  ASSERT_GT(n_lo, 0u);
}

TEST(Scheduler, PreemptionFreesTheSlotAndSalvagedStateIsRestored) {
  // One admission slot and a hot stream: high arrivals land while a
  // low-priority migration is mid-copy, so preemption must fire.
  Rig rig("poisson:rate=0.5,until=60,hi=0.34;sched:concurrent=1,preempt=1");
  ASSERT_TRUE(rig.run());
  expect_terminal_accounting(rig);
  const SchedulerStats s = rig.sched->stats();
  ASSERT_GT(s.preemptions, 0u);
  double salvaged = 0;
  for (const RequestRecord& r : rig.sched->requests()) {
    if (r.preemptions == 0) continue;
    EXPECT_FALSE(r.high_priority);  // only low-priority work is preemptible
    // Preempted work was admitted once and must still finish (no faults, so
    // nothing is abandoned): requeue-at-front kept it from starving.
    EXPECT_GE(r.t_completed, 0) << "preempted request " << r.id << " starved";
    ASSERT_NE(r.migration, nullptr);
    // Every preemption aborted one attempt of this record.
    EXPECT_GE(static_cast<std::uint32_t>(r.migration->retries), r.preemptions);
    salvaged += r.migration->salvaged_chunks;
  }
  // The re-dispatched attempts adopted partial destination replicas: the
  // chunks pushed before the abort were not re-transferred from scratch.
  EXPECT_GT(salvaged, 0.0);
}

/// Reconstruct the occupancy timeline from the request records and assert
/// capacity/anti-affinity hold at every instant. Completions sort before
/// dispatches at equal times, matching the scheduler's in-event order
/// (attempt completion runs try_dispatch within the same event).
void expect_constraints_held(const Rig& rig, std::uint32_t capacity,
                             std::uint32_t groups) {
  struct Ev {
    double t;
    int type;  // 0 = commit, 1 = claim
    const RequestRecord* r;
  };
  std::vector<Ev> evs;
  for (const RequestRecord& r : rig.sched->requests()) {
    if (r.t_dispatched < 0) continue;
    EXPECT_GE(r.dst, static_cast<net::NodeId>(rig.n_vms));
    EXPECT_LT(r.dst, static_cast<net::NodeId>(rig.n_vms + rig.n_dsts));
    evs.push_back(Ev{r.t_dispatched, 1, &r});
    if (r.t_completed >= 0) evs.push_back(Ev{r.t_completed, 0, &r});
  }
  std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.t != b.t ? a.t < b.t : a.type < b.type;
  });
  std::map<net::NodeId, std::uint32_t> load;                      // claims+residents
  std::map<std::pair<net::NodeId, std::uint32_t>, std::uint32_t> group_load;
  std::map<int, net::NodeId> resident_of;
  for (const Ev& e : evs) {
    const std::uint32_t g =
        groups == 0 ? 0 : static_cast<std::uint32_t>(e.r->vm_id) % groups;
    if (e.type == 1) {
      const std::uint32_t n = ++load[e.r->dst];
      if (capacity > 0) EXPECT_LE(n, capacity) << "node " << e.r->dst << " at t=" << e.t;
      if (groups > 0) {
        const std::uint32_t gl = ++group_load[std::make_pair(e.r->dst, g)];
        EXPECT_LE(gl, 1u) << "group " << g << " collided on node " << e.r->dst
                          << " at t=" << e.t;
      }
    } else {
      // Commit: the claim became residency (no net change on dst) and the
      // VM's previous pool residency was vacated.
      auto it = resident_of.find(e.r->vm_id);
      if (it != resident_of.end()) {
        --load[it->second];
        if (groups > 0) --group_load[{it->second, g}];
      }
      resident_of[e.r->vm_id] = e.r->dst;
    }
  }
  // Cross-check the reconstruction against the map's end state.
  for (std::uint32_t d = 0; d < rig.n_dsts; ++d) {
    const auto node = static_cast<net::NodeId>(rig.n_vms + d);
    EXPECT_EQ(rig.sched->placement().reserved(node), 0u) << "node " << node;
    EXPECT_EQ(rig.sched->placement().residents(node), load[node]) << "node " << node;
  }
}

TEST(Scheduler, CapacityAndAntiAffinityHoldUnderRandomizedConfigs) {
  const struct {
    const char* sched;
    std::uint32_t capacity, groups;
  } kConfigs[] = {
      {"sched:concurrent=3,capacity=2,groups=0,policy=least-loaded", 2, 0},
      {"sched:concurrent=4,capacity=2,groups=3,policy=round-robin", 2, 3},
      {"sched:concurrent=2,capacity=1,groups=2,policy=least-loaded,preempt=1", 1, 2},
  };
  for (std::uint64_t seed : {1u, 7u, 13u}) {
    for (const auto& c : kConfigs) {
      const std::string spec =
          "poisson:rate=0.6,until=50,hi=0.3;" + std::string(c.sched);
      Rig rig(spec, seed, /*vms=*/6, /*dsts=*/3);
      ASSERT_TRUE(rig.run()) << spec << " seed " << seed;
      expect_terminal_accounting(rig);
      expect_constraints_held(rig, c.capacity, c.groups);
    }
  }
}

TEST(Scheduler, ProvablyStuckRequestsAreRejectedNotStarved) {
  // groups=1 puts every VM in one anti-affinity class: each pool node can
  // ever hold one VM, so exactly n_dsts migrations can complete. Once the
  // last one drains, the remaining queue is provably unplaceable.
  Rig rig("poisson:rate=0.5,until=40;sched:concurrent=2,capacity=1,groups=1",
          /*seed=*/42, /*vms=*/6, /*dsts=*/2);
  ASSERT_TRUE(rig.run());
  expect_terminal_accounting(rig);
  const SchedulerStats s = rig.sched->stats();
  EXPECT_EQ(s.completed, 2u);  // one per pool node
  EXPECT_GT(s.rejected, 0u);
  EXPECT_EQ(s.completed + s.rejected, s.requests);
  expect_constraints_held(rig, 1, 1);
}

void expect_identical_requests(const Rig& a, const Rig& b) {
  const auto& ra = a.sched->requests();
  const auto& rb = b.sched->requests();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].high_priority, rb[i].high_priority) << i;
    EXPECT_EQ(ra[i].t_arrival, rb[i].t_arrival) << i;
    EXPECT_EQ(ra[i].t_dispatched, rb[i].t_dispatched) << i;
    EXPECT_EQ(ra[i].t_completed, rb[i].t_completed) << i;
    EXPECT_EQ(ra[i].vm_id, rb[i].vm_id) << i;
    EXPECT_EQ(ra[i].dst, rb[i].dst) << i;
    EXPECT_EQ(ra[i].preemptions, rb[i].preemptions) << i;
    EXPECT_EQ(ra[i].fault_retries, rb[i].fault_retries) << i;
  }
  EXPECT_EQ(a.sim.now(), b.sim.now());
}

TEST(Scheduler, RequestTimelineIsDeterministicAcrossRerunsAndSolverRegimes) {
  const std::string spec =
      "poisson:rate=0.5,until=60,hi=0.34;sched:concurrent=2,capacity=2,"
      "groups=2,preempt=1";
  Rig a(spec, 42, 6, 3, /*incremental=*/true);
  Rig b(spec, 42, 6, 3, /*incremental=*/true);
  Rig c(spec, 42, 6, 3, /*incremental=*/false);  // full-solve regime
  ASSERT_TRUE(a.run());
  ASSERT_TRUE(b.run());
  ASSERT_TRUE(c.run());
  expect_identical_requests(a, b);
  expect_identical_requests(a, c);
}

// --------------------------------------------------------------------------
// Experiment plumbing: scheduler stats surface in the result and the shard
// plan collapses (any VM can migrate anywhere — the fleet is one component).

TEST(SchedulerExperiment, StatsSurfaceAndShardPlanCollapses) {
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.image = storage::ImageConfig{64 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.vm = rig_vm();
  cfg.workload = WorkloadKind::kNone;
  cfg.num_vms = 4;
  cfg.num_destinations = 2;
  cfg.num_migrations = 0;
  cfg.max_sim_time = 600.0;
  cfg.shards = 4;
  std::string err;
  ASSERT_TRUE(parse_scheduler_spec("poisson:rate=0.3,until=30;sched:concurrent=2",
                                   &cfg.scheduler, &err))
      << err;
  ExperimentResult res = Experiment(std::move(cfg)).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GT(res.scheduler.requests, 0u);
  EXPECT_EQ(res.scheduler.completed + res.scheduler.abandoned +
                res.scheduler.rejected,
            res.scheduler.requests);
  EXPECT_EQ(res.migrations.size(), res.scheduler.dispatched);
  EXPECT_EQ(res.shards_used, 1u);
  EXPECT_NE(res.shard_fallback_reason.find("scheduler"), std::string::npos)
      << res.shard_fallback_reason;
}

}  // namespace
}  // namespace hm::cloud
