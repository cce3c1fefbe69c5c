#include "cloud/fault_injector.h"

#include <algorithm>

namespace hm::cloud {

std::size_t fault_migration(const ExperimentConfig& cfg, const sim::FaultEvent& ev) {
  return cfg.num_vms > 0 ? ev.target % cfg.num_vms : 0;
}

std::vector<net::NodeId> fault_nodes(const ExperimentConfig& cfg, const sim::FaultEvent& ev) {
  switch (sim::fault_kind_info(ev.kind).scope) {
    case sim::FaultScope::kMigrationSource:
      return {static_cast<net::NodeId>(fault_migration(cfg, ev))};
    case sim::FaultScope::kMigrationDest:
      return {cfg.destination_of(fault_migration(cfg, ev))};
    case sim::FaultScope::kNode:
      return {static_cast<net::NodeId>(ev.target % cfg.cluster.num_nodes)};
    case sim::FaultScope::kDomain: {
      std::vector<net::NodeId> members;
      for (const std::uint32_t n : cfg.faults.domains[ev.target].nodes)
        if (n < cfg.cluster.num_nodes) members.push_back(static_cast<net::NodeId>(n));
      return members;
    }
    case sim::FaultScope::kRepository:
      break;
  }
  return {};
}

std::size_t churn_node_count(const ExperimentConfig& cfg) {
  const std::uint32_t nodes = cfg.faults.churn_spec.nodes;
  return std::min(nodes > 0 ? nodes : cfg.num_vms + cfg.num_destinations, cfg.cluster.num_nodes);
}

FaultInjector::FaultInjector(sim::Simulator& sim, vm::Cluster& cluster, Middleware& mw,
                             const ExperimentConfig& cfg)
    : sim_(sim),
      cluster_(cluster),
      mw_(mw),
      cfg_(cfg),
      down_holds_(cluster.size(), 0),
      paused_vms_(cluster.size()),
      down_since_(cluster.size(), 0),
      window_holds_(cluster.size(), 0) {}

void FaultInjector::arm() {
  for (const sim::FaultEvent& ev : sim::build_fault_plan(
           cfg_.faults, cluster_.rng(), static_cast<std::uint32_t>(cfg_.num_migrations))) {
    slots_.push_back(Slot{this, ev});
    Slot* s = &slots_.back();
    sim_.schedule_at(ev.at, [s] { s->self->strike(s->ev, true); });
    sim_.schedule_at(ev.at + ev.duration_s, [s] { s->self->strike(s->ev, false); });
  }
  if (cfg_.faults.churn) arm_churn();
}

void FaultInjector::arm_churn() {
  const sim::FaultChurnSpec& cs = cfg_.faults.churn_spec;
  const std::size_t n_nodes = churn_node_count(cfg_);
  // Fixed construction order (node-major, then category, then domains):
  // every process owns a named fork of the experiment stream, so adding a
  // category or resizing the fleet never perturbs the other processes.
  const struct {
    const char* name;
    sim::FaultKind kind;
    double mtbf, mttr;
  } cats[] = {
      {"crash", sim::FaultKind::kNodeCrash, cs.crash_mtbf, cs.crash_mttr},
      {"degrade", sim::FaultKind::kNodeDegrade, cs.degrade_mtbf, cs.degrade_mttr},
      {"flap", sim::FaultKind::kNodeFlap, cs.flap_mtbf, cs.flap_mttr},
  };
  for (std::size_t n = 0; n < n_nodes; ++n) {
    const sim::Rng base = cluster_.rng().fork("churn", n);
    for (const auto& cat : cats) {
      if (!(cat.mtbf > 0)) continue;
      sim::FaultEvent ev;
      ev.kind = cat.kind;
      ev.factor = cs.factor;
      ev.target = static_cast<std::uint32_t>(n);
      churn_.push_back(ChurnProc{this, base.fork(cat.name), ev, cat.mtbf, cat.mttr});
      schedule_next(churn_.back(), cs.from);
    }
  }
  if (cs.domain_mtbf > 0) {
    for (std::size_t d = 0; d < cfg_.faults.domains.size(); ++d) {
      sim::FaultEvent ev;
      ev.kind = sim::FaultKind::kDomainCrash;
      ev.factor = cs.factor;
      ev.target = static_cast<std::uint32_t>(d);
      churn_.push_back(ChurnProc{this, cluster_.rng().fork("churn-domain", d), ev,
                                 cs.domain_mtbf, cs.domain_mttr});
      schedule_next(churn_.back(), cs.from);
    }
  }
}

void FaultInjector::schedule_next(ChurnProc& p, double t_base) {
  const double at = t_base + p.rng.exponential(p.mtbf);
  const double dur = std::max(0.5, p.rng.exponential(p.mttr));
  const double until = cfg_.faults.churn_spec.until;
  if (until > 0 && at > until) return;
  p.ev.at = at;
  p.ev.duration_s = dur;
  ChurnProc* pp = &p;
  sim_.schedule_at(at, [pp] { pp->self->fire_churn(*pp); });
}

void FaultInjector::fire_churn(ChurnProc& p) {
  strike(p.ev, true);
  ChurnProc* pp = &p;
  sim_.schedule_at(p.ev.at + p.ev.duration_s, [pp] { pp->self->restore_churn(*pp); });
}

void FaultInjector::restore_churn(ChurnProc& p) {
  strike(p.ev, false);
  // Next occurrence counts its MTBF gap from the end of this repair window.
  schedule_next(p, p.ev.at + p.ev.duration_s);
}

void FaultInjector::strike(const sim::FaultEvent& ev, bool begin) {
  const sim::FaultKindInfo& kind = sim::fault_kind_info(ev.kind);
  if (begin) {
    ++faults_applied_;
    if (kind.scope == sim::FaultScope::kDomain) ++correlated_events_;
  }
  if (kind.effect == sim::FaultEffect::kOutage) {
    if (begin ? outage_holds_++ == 0 : --outage_holds_ == 0) set_repo_available(!begin);
    return;
  }
  auto& net = cluster_.network();
  const double mult = begin ? ev.factor : 1.0 / ev.factor;
  // A domain's members are struck in ascending id in the same instant, so a
  // migration whose source and destination share the rack loses both
  // endpoints atomically.
  for (const net::NodeId n : fault_nodes(cfg_, ev)) {
    if (begin) ++window_holds_[n];
    switch (kind.effect) {
      case sim::FaultEffect::kCrash:
        begin ? crash_node(n) : reboot_node(n);
        break;
      case sim::FaultEffect::kDegrade:
        net.scale_node_capacity(n, mult, mult);
        break;
      case sim::FaultEffect::kFlap:
        net.set_link_flapped(n, begin);
        break;
      case sim::FaultEffect::kSlowReceive:
        net.scale_node_capacity(n, 1.0, mult);
        break;
      case sim::FaultEffect::kOutage:
        break;
    }
    if (!begin) --window_holds_[n];
  }
}

void FaultInjector::crash_node(net::NodeId n) {
  if (down_holds_[n]++ != 0) return;  // already down (overlapping windows)
  ++node_crashes_;
  // Order matters: fail the node's flows first (their continuations are
  // queued on the fast lane, not yet resumed), then flag affected sessions
  // aborted — by the time a failed transfer observes `false`, aborted() is
  // already true.
  cluster_.network().set_node_up(n, false);
  mw_.on_node_down(n);
  // The crash freezes every guest hosted there until the node reboots
  // (fail-recover model: host RAM and local disk survive the reboot).
  for (std::size_t i = 0; i < mw_.vm_count(); ++i) {
    vm::VmInstance& v = mw_.vm(i);
    if (v.node() == n) {
      v.pause();
      paused_vms_[n].push_back(v.id());
    }
  }
  down_since_[n] = sim_.now();
}

void FaultInjector::reboot_node(net::NodeId n) {
  if (--down_holds_[n] != 0) return;
  cluster_.network().set_node_up(n, true);
  const double down_for = sim_.now() - down_since_[n];
  node_downtime_s_ += down_for;
  for (int id : paused_vms_[n]) {
    for (std::size_t i = 0; i < mw_.vm_count(); ++i) {
      vm::VmInstance& v = mw_.vm(i);
      if (v.id() == id) {
        v.resume();
        fault_pause_s_ += down_for;
        break;
      }
    }
  }
  paused_vms_[n].clear();
}

void FaultInjector::set_repo_available(bool up) {
  cluster_.repository().set_available(up);
  if (cluster_.pvfs() != nullptr) cluster_.pvfs()->set_available(up);
}

}  // namespace hm::cloud
