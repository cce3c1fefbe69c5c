// Replays an experiment's fault spec through the ordinary simulator lanes:
// every fault is a pair of scheduled events (open at `at`, close at
// `at + duration_s`) applying its kind's effect (sim::FaultKindInfo) to
// the nodes fault_nodes() resolves — node crash/reboot, NIC capacity
// scaling, link flaps, repository/PVFS outage windows — plus the
// middleware hook that aborts in-flight migration attempts whose endpoints
// just died. Because the events are materialized up front from the
// experiment seed and the injector only uses scheduled timers, fault runs
// inherit the engine's determinism contract unchanged.
//
// Churn mode (spec.churn): instead of a bounded pre-built list, each node
// runs continuous per-category fault processes (crash / degrade / flap) and
// each failure domain a correlated-crash process, every process on its own
// forked RNG stream (cluster rng -> fork("churn", node) -> per-category
// fork). Occurrences are emitted lazily — one timer ahead per process —
// with exponential MTBF gaps and MTTR durations, so a long-horizon run
// never materializes its (unbounded) fault timeline. Each process's draw
// sequence is self-contained, which keeps churn runs byte-identical across
// solver regimes just like scripted plans.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "cloud/experiment.h"
#include "cloud/middleware.h"
#include "sim/fault_plan.h"

namespace hm::cloud {

/// The migration a migration-scoped event names: its target wrapped to the
/// VM count.
std::size_t fault_migration(const ExperimentConfig& cfg, const sim::FaultEvent& ev);
/// The node ids `ev` strikes in the normalized config's cluster, ascending:
/// the source (node k) or destination (cfg.destination_of(k)) of migration
/// k, a node id wrapped to the cluster size, or the members of a failure
/// domain that exist in the cluster. Empty for a repository outage.
std::vector<net::NodeId> fault_nodes(const ExperimentConfig& cfg, const sim::FaultEvent& ev);
/// Nodes that run churn processes: the churn spec's `nodes` or else every
/// migration endpoint (sources + destinations), capped at the cluster.
std::size_t churn_node_count(const ExperimentConfig& cfg);

class FaultInjector {
 public:
  /// Injects cfg.faults; `cfg` is normalized and outlives the injector.
  FaultInjector(sim::Simulator& sim, vm::Cluster& cluster, Middleware& mw,
                const ExperimentConfig& cfg);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule open/close timers for every planned event, and start the
  /// churn processes (if the spec has a churn body).
  void arm();

  std::uint32_t faults_applied() const noexcept { return faults_applied_; }
  /// Cumulative guest pause time attributable to crashed hosts (summed over
  /// paused VMs) — the downtime-inflation component of the recovery metrics.
  double fault_pause_s() const noexcept { return fault_pause_s_; }
  /// Up -> down node transitions (a correlated domain crash counts one per
  /// member node it actually took down).
  std::uint32_t node_crashes() const noexcept { return node_crashes_; }
  /// Domain-scoped (multi-node correlated) events applied.
  std::uint32_t correlated_events() const noexcept { return correlated_events_; }
  /// Node-seconds spent down, summed over nodes (availability telemetry).
  double node_downtime_s() const noexcept { return node_downtime_s_; }

  /// Auditor attribution: is some fault window currently open on node `n`
  /// (crash, degrade, flap — anything that legitimately stalls or slows a
  /// migration touching it)?
  bool node_excused(net::NodeId n) const noexcept {
    return n < window_holds_.size() && window_holds_[n] > 0;
  }
  /// Is a repository/PVFS outage window currently open?
  bool repo_disrupted() const noexcept { return outage_holds_ > 0; }

 private:
  /// Stable capture block for the two-word timer closures (scripted events).
  struct Slot {
    FaultInjector* self;
    sim::FaultEvent ev;
  };
  /// One continuous churn process (per node x category, or per domain).
  /// Draw order per occurrence: gap, then duration — always from this
  /// process's own stream, so interleaving with other processes can never
  /// shift the draws.
  struct ChurnProc {
    FaultInjector* self;
    sim::Rng rng;
    sim::FaultEvent ev;  // kind/factor/target template; at/duration_s per occurrence
    double mtbf = 0;
    double mttr = 0;
  };

  /// Open (`begin`) or close one fault window on every node it strikes.
  void strike(const sim::FaultEvent& ev, bool begin);
  void crash_node(net::NodeId n);
  void reboot_node(net::NodeId n);
  void set_repo_available(bool up);
  void arm_churn();
  /// Draw the next occurrence of `p` no earlier than `t_base` and schedule
  /// its apply/restore timers; stops silently past churn_spec.until.
  void schedule_next(ChurnProc& p, double t_base);
  void fire_churn(ChurnProc& p);
  void restore_churn(ChurnProc& p);

  sim::Simulator& sim_;
  vm::Cluster& cluster_;
  Middleware& mw_;
  const ExperimentConfig& cfg_;
  std::deque<Slot> slots_;       // deque: addresses must survive the timers
  std::deque<ChurnProc> churn_;  // likewise
  // Overlapping windows on the same resource are hold-counted: the resource
  // goes down on 0 -> 1 and comes back on 1 -> 0.
  std::vector<std::uint32_t> down_holds_;
  std::vector<std::vector<int>> paused_vms_;  // VM ids frozen per crashed node
  std::vector<double> down_since_;
  /// Open fault windows of any kind per node (crash + degrade + flap), for
  /// the auditor's liveness excuses.
  std::vector<std::uint32_t> window_holds_;
  std::uint32_t outage_holds_ = 0;
  std::uint32_t faults_applied_ = 0;
  std::uint32_t node_crashes_ = 0;
  std::uint32_t correlated_events_ = 0;
  double fault_pause_s_ = 0;
  double node_downtime_s_ = 0;
};

}  // namespace hm::cloud
