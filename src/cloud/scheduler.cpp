#include "cloud/scheduler.h"

#include <algorithm>
#include <cassert>
#include <climits>

#include "cloud/recovery.h"
#include "util/spec.h"
#include "vm/compute_node.h"

namespace hm::cloud {

// --------------------------------------------------------------------------
// Spec parsing: ARRIVALS[;sched:k=v,...]

bool parse_scheduler_spec(std::string_view arg, SchedulerConfig* out,
                          std::string* err) {
  constexpr std::string_view kGrammar = "sched";
  SchedulerConfig cfg;
  std::string_view arrivals = arg;
  std::string_view sched;
  if (auto pos = arg.find(";sched:"); pos != std::string_view::npos) {
    arrivals = arg.substr(0, pos);
    sched = arg.substr(pos + 7);
  }
  if (!sim::parse_arrival_spec(arrivals, &cfg.arrivals, err)) return false;
  const util::SpecKey keys[] = {
      {"concurrent", &cfg.max_concurrent, 1, UINT32_MAX},
      {"capacity", &cfg.placement.capacity, 0, UINT32_MAX},
      {"groups", &cfg.placement.affinity_groups, 0, UINT32_MAX},
      {"preempt", &cfg.preempt, 0, 1},
      {"attempts", &cfg.max_attempts, 0, INT_MAX},
  };
  if (!util::for_each_item(sched, ',', [&](std::string_view item) {
        if (item.rfind("policy=", 0) != 0) return util::parse_key_item(kGrammar, keys, item, err);
        return parse_placement_policy(item.substr(7), &cfg.placement.policy) ||
               util::spec_error(kGrammar, "unknown policy '" + std::string(item.substr(7)) +
                                              "' (round-robin|least-loaded)", err);
      }))
    return false;
  *out = cfg;
  return true;
}

// --------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(sim::Simulator& sim, vm::Cluster& cluster, Middleware& mw,
                     const SchedulerConfig& cfg, net::NodeId first_dst,
                     std::uint32_t num_dsts, sim::WaitGroup* all_done)
    : sim_(sim),
      cluster_(cluster),
      mw_(mw),
      cfg_(cfg),
      placement_(cfg.placement, first_dst, num_dsts),
      process_(cfg.arrivals, cluster.rng()),
      vm_rng_(cluster.rng().fork("sched-vm")),
      all_done_(all_done),
      max_attempts_(cfg.max_attempts > 0 ? cfg.max_attempts
                                         : mw.config().max_attempts),
      vm_busy_(mw.vm_count(), 0) {}

void Scheduler::start() { sim_.spawn(pump_arrivals()); }

sim::Task Scheduler::pump_arrivals() {
  for (;;) {
    const auto a = process_.next();
    if (!a.has_value()) break;
    if (a->at > sim_.now()) co_await sim_.delay(a->at - sim_.now());
    requests_.push_back(RequestRecord{});
    RequestRecord& r = requests_.back();
    r.id = requests_.size() - 1;
    r.high_priority = a->high_priority;
    r.t_arrival = sim_.now();
    enqueue(&r);
    try_dispatch();
  }
  arrivals_done_ = true;
  try_dispatch();  // a stuck head can now be provably rejected
  maybe_finish();
}

void Scheduler::enqueue(RequestRecord* r) {
  (r->high_priority ? high_q_ : low_q_).push_back(r);
  peak_queue_depth_ = std::max<std::uint64_t>(peak_queue_depth_, queued());
}

void Scheduler::try_dispatch() {
  for (;;) {
    std::deque<RequestRecord*>* q =
        !high_q_.empty() ? &high_q_ : (!low_q_.empty() ? &low_q_ : nullptr);
    if (q == nullptr) break;
    RequestRecord* r = q->front();

    if (running_ >= cfg_.max_concurrent) {
      if (cfg_.preempt && r->high_priority) maybe_preempt();
      break;  // wait for a slot
    }

    if (r->vm_id < 0) {
      const int slot = pick_vm_slot();
      if (slot < 0) {
        if (running_ > 0) break;  // a completion may change feasibility
        // Nothing is running, so the placement state is frozen: this head
        // can never dispatch. Reject it so the queue keeps draining.
        r->rejected = true;
        ++rejected_;
        q->pop_front();
        maybe_finish();
        continue;
      }
      vm::VmInstance& vm = mw_.vm(static_cast<std::size_t>(slot));
      r->vm_slot = slot;
      r->vm_id = vm.id();
      r->dst = placement_.choose(r->vm_id);
      placement_.reserve(r->dst, r->vm_id);
      vm_busy_[static_cast<std::size_t>(slot)] = 1;
    }

    q->pop_front();
    dispatch(r);
  }
}

int Scheduler::pick_vm_slot() {
  eligible_.clear();
  for (std::size_t i = 0; i < vm_busy_.size(); ++i) {
    if (vm_busy_[i]) continue;
    if (!placement_.feasible(mw_.vm(i).id())) continue;
    eligible_.push_back(static_cast<int>(i));
  }
  if (eligible_.empty()) return -1;
  return eligible_[vm_rng_.uniform(eligible_.size())];
}

void Scheduler::dispatch(RequestRecord* r) {
  r->t_last_dispatch = sim_.now();
  if (r->t_dispatched < 0) {
    r->t_dispatched = sim_.now();
    ++dispatched_;
    r->migration = &mw_.metrics().new_migration(r->vm_id);
    r->migration->t_request = sim_.now();
  }
  ++running_;
  running_reqs_.push_back(r);
  peak_running_ = std::max<std::uint64_t>(peak_running_, running_);
  sim_.spawn(run_request(r));
}

void Scheduler::maybe_preempt() {
  // Victim: the youngest-dispatched running low-priority migration whose
  // attempt has not moved control yet (post-transfer aborts are pointless —
  // the source is released within the same attempt) and that is not already
  // winding down from an earlier preemption request.
  RequestRecord* victim = nullptr;
  for (RequestRecord* c : running_reqs_) {
    if (c->high_priority || c->preempt_requested) continue;
    core::StorageMigrationSession* s = mw_.active_session_for(*c->migration);
    if (s == nullptr || s->control_transferred()) continue;
    if (victim == nullptr || c->t_last_dispatch > victim->t_last_dispatch)
      victim = c;
  }
  if (victim == nullptr) return;
  victim->preempt_requested = true;
  mw_.active_session_for(*victim->migration)->abort();
}

void Scheduler::finish_running(RequestRecord* r) {
  --running_;
  running_reqs_.erase(
      std::find(running_reqs_.begin(), running_reqs_.end(), r));
}

sim::Task Scheduler::run_request(RequestRecord* r) {
  vm::VmInstance& vm = mw_.vm(static_cast<std::size_t>(r->vm_slot));
  auto& net = cluster_.network();
  for (;;) {
    bool completed = false;
    co_await mw_.migrate_attempt(vm, r->dst, *r->migration, &completed);

    if (completed) {
      placement_.commit(r->dst, r->vm_id);
      r->t_completed = sim_.now();
      ++completed_;
      r->preempt_requested = false;  // raced with a late preemption decision
      vm_busy_[static_cast<std::size_t>(r->vm_slot)] = 0;
      finish_running(r);
      try_dispatch();
      maybe_finish();
      co_return;
    }

    if (r->preempt_requested) {
      // Preempted for a high-priority arrival: hand the slot back and
      // requeue at the front of the low queue (admitted work must not be
      // overtaken by new arrivals). The VM, destination and reservation are
      // kept — the salvaged partial replica lives on that node and resume
      // adoption requires the same node and epoch.
      r->preempt_requested = false;
      ++r->preemptions;
      ++preempted_total_;
      finish_running(r);
      low_q_.push_front(r);
      peak_queue_depth_ = std::max<std::uint64_t>(peak_queue_depth_, queued());
      try_dispatch();
      co_return;
    }

    // Fault abort: retry in place, holding the admission slot (the classic
    // Middleware::migrate loop), until the per-request budget runs out.
    ++r->fault_retries;
    if (static_cast<int>(r->fault_retries) >= max_attempts_) {
      r->abandoned = true;
      r->migration->abandoned = true;
      ++abandoned_;
      placement_.release(r->dst, r->vm_id);
      vm_busy_[static_cast<std::size_t>(r->vm_slot)] = 0;
      finish_running(r);
      try_dispatch();
      maybe_finish();
      co_return;
    }
    co_await net.wait_node_up(vm.node());
    co_await net.wait_node_up(r->dst);
    co_await sim_.delay(kRetryBackoffS);
  }
}

void Scheduler::maybe_finish() {
  if (finished_ || !arrivals_done_ || running_ != 0 || queued() != 0) return;
  finished_ = true;
  if (all_done_ != nullptr) all_done_->done();
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  s.requests = requests_.size();
  s.dispatched = dispatched_;
  s.completed = completed_;
  s.preemptions = preempted_total_;
  s.abandoned = abandoned_;
  s.rejected = rejected_;
  s.peak_queue_depth = peak_queue_depth_;
  s.peak_running = peak_running_;
  std::vector<double> delays;
  delays.reserve(requests_.size());
  for (const RequestRecord& r : requests_) {
    if (r.t_dispatched < 0) continue;
    const double d = r.queueing_delay();
    delays.push_back(d);
    s.max_queueing_delay_s = std::max(s.max_queueing_delay_s, d);
  }
  s.queueing_p50_s = nearest_rank_percentile(delays, 0.50);
  s.queueing_p99_s = nearest_rank_percentile(delays, 0.99);
  s.queueing_p999_s = nearest_rank_percentile(delays, 0.999);
  return s;
}

}  // namespace hm::cloud
