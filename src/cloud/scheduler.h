// Continuous-arrival migration scheduler: the steady-state service layer on
// top of Middleware/MigrationManager. An open stream of migration requests
// (sim/arrival_process.h) feeds a two-class FIFO admission queue; a bounded
// number run concurrently, each against a destination chosen by the
// placement policy (cloud/placement.h) under capacity and anti-affinity
// constraints. High-priority requests may preempt running low-priority
// migrations; preempted and fault-aborted attempts both reuse the salvage
// path (Middleware::migrate_attempt), so a re-dispatched request adopts the
// partial destination replica its earlier attempt left behind.
//
// Determinism: every decision happens inside ordinary simulator events
// (arrival timers, attempt completions), placement is pure bookkeeping, and
// the only draws are the arrival process's own forked streams plus one
// "sched-vm" stream for victim-VM selection — so the request timeline is a
// pure function of (config, seed), byte-identical in both solver regimes.
// The scheduler spans the whole fleet (any VM, any destination), so
// scheduler regimes statically collapse the shard plan (cloud/shard_plan.cpp)
// and --shards runs gate trivially against the shards=1 timeline.
//
// Queue discipline (asserted by tests/cloud/scheduler_test.cpp):
//  * strict priority: the high queue is always served before the low queue;
//  * FIFO within a class, head-of-line blocking included — a request whose
//    placement is currently infeasible blocks its class until a completion
//    changes the occupancy map;
//  * a preempted request requeues at the FRONT of the low queue (it was
//    already admitted once — new arrivals must not overtake it) and keeps
//    its VM, destination and reservation;
//  * no deadlock: when nothing is running, placement state is frozen, so a
//    head request that cannot dispatch then can never dispatch — it is
//    rejected (counted, never silently dropped) and the queue drains on.
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "cloud/middleware.h"
#include "cloud/placement.h"
#include "sim/arrival_process.h"
#include "sim/sync.h"

namespace hm::cloud {

struct SchedulerConfig {
  sim::ArrivalSpec arrivals{};
  PlacementConfig placement{};
  /// Bounded admission: at most this many migrations in flight.
  std::uint32_t max_concurrent = 4;
  /// High-priority head-of-queue requests may abort the youngest running
  /// low-priority migration (pre-control-transfer only) to free a slot.
  bool preempt = true;
  /// Fault-abort retry budget per request (0 = inherit the middleware's
  /// ApproachConfig::max_attempts). Preemptions do not count against it.
  int max_attempts = 0;

  bool enabled() const noexcept { return arrivals.enabled(); }
};

/// Parse "--arrivals=ARRIVALS[;sched:k=v,...]": the arrival-process part per
/// sim/arrival_process.h, plus scheduler knobs — concurrent (admission
/// bound, > 0), capacity (per-node, 0 = unlimited), groups (anti-affinity
/// classes, 0 = off), policy (round-robin|least-loaded), preempt (0|1),
/// attempts (retry budget up to INT_MAX, 0 = inherit). Items, numbers and
/// diagnostics follow util/spec.h: every knob but policy is an integer
/// (whole in any notation, so "2.0" is 2). Returns false with *err set on
/// a malformed spec.
bool parse_scheduler_spec(std::string_view arg, SchedulerConfig* out,
                          std::string* err);

/// One request's lifecycle, kept for the whole run (tests and percentile
/// extraction read these; deque storage keeps references stable).
struct RequestRecord {
  std::uint64_t id = 0;
  bool high_priority = false;
  double t_arrival = 0;
  double t_dispatched = -1;  // first admission (-1 = never admitted)
  double t_completed = -1;   // source released (-1 = not completed)
  int vm_id = -1;            // chosen at first dispatch
  net::NodeId dst = 0;       // fixed across preemptions (salvage pins it)
  std::uint32_t preemptions = 0;
  std::uint32_t fault_retries = 0;
  bool abandoned = false;  // fault-retry budget exhausted
  bool rejected = false;   // provably unplaceable, never admitted
  core::MigrationRecord* migration = nullptr;  // null until first dispatch

  /// Time from arrival to first admission (the queueing-delay percentile
  /// sample; later requeues after preemption are not re-counted).
  double queueing_delay() const noexcept {
    return t_dispatched >= 0 ? t_dispatched - t_arrival : 0;
  }

  // --- scheduler-internal state ------------------------------------------
  int vm_slot = -1;              // middleware slot index of vm_id
  double t_last_dispatch = -1;   // preemption picks the youngest victim
  bool preempt_requested = false;
};

/// Aggregates emitted into sweep rows (only for scheduler regimes: the
/// kScheduler fields of cloud/report.cpp's result-field table).
struct SchedulerStats {
  std::uint64_t requests = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t rejected = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t peak_running = 0;
  double max_queueing_delay_s = 0;
  // Deterministic nearest-rank percentiles over per-request queueing delays
  // (cloud/recovery.h machinery).
  double queueing_p50_s = 0;
  double queueing_p99_s = 0;
  double queueing_p999_s = 0;
};

class Scheduler {
 public:
  /// `first_dst`/`num_dsts` define the destination pool (the experiment's
  /// destination nodes). `all_done` must have one add() outstanding for the
  /// scheduler; done() fires when the arrival stream is exhausted and every
  /// request reached a terminal state (completed, abandoned or rejected).
  Scheduler(sim::Simulator& sim, vm::Cluster& cluster, Middleware& mw,
            const SchedulerConfig& cfg, net::NodeId first_dst,
            std::uint32_t num_dsts, sim::WaitGroup* all_done);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Arm the arrival pump (call once, before the event loop runs).
  void start();

  const std::deque<RequestRecord>& requests() const noexcept { return requests_; }
  const PlacementMap& placement() const noexcept { return placement_; }
  std::uint32_t running() const noexcept { return running_; }
  std::size_t queued() const noexcept { return high_q_.size() + low_q_.size(); }
  bool drained() const noexcept { return finished_; }

  /// Aggregates + queueing-delay percentiles over the records so far.
  SchedulerStats stats() const;

 private:
  sim::Task pump_arrivals();
  sim::Task run_request(RequestRecord* r);
  void enqueue(RequestRecord* r);
  void try_dispatch();
  void dispatch(RequestRecord* r);
  /// Abort the youngest preemptible running low-priority migration.
  void maybe_preempt();
  /// Pick the victim VM for a fresh dispatch: a uniform draw (own forked
  /// stream) over idle VMs that have a feasible placement. -1 if none.
  int pick_vm_slot();
  void finish_running(RequestRecord* r);
  void maybe_finish();

  sim::Simulator& sim_;
  vm::Cluster& cluster_;
  Middleware& mw_;
  SchedulerConfig cfg_;
  PlacementMap placement_;
  sim::ArrivalProcess process_;
  sim::Rng vm_rng_;
  sim::WaitGroup* all_done_;
  int max_attempts_;

  std::deque<RequestRecord> requests_;  // stable addresses for timers/tasks
  std::deque<RequestRecord*> high_q_;
  std::deque<RequestRecord*> low_q_;
  std::vector<RequestRecord*> running_reqs_;
  std::vector<char> vm_busy_;
  std::vector<int> eligible_;  // pick_vm_slot's scratch
  std::uint32_t running_ = 0;
  bool arrivals_done_ = false;
  bool finished_ = false;

  std::uint64_t completed_ = 0;
  std::uint64_t preempted_total_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  std::uint64_t peak_running_ = 0;
};

}  // namespace hm::cloud
