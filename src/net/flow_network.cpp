#include "net/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hm::net {

namespace {
// Rates are O(1e6..1e9) B/s and transfers O(1e3..1e10) B, so byte-scale
// epsilons are far below anything meaningful while absorbing FP rounding.
constexpr double kEpsBytes = 1e-3;   // flows below this are complete
constexpr double kEpsRate = 1.0;     // rates below 1 B/s are "saturated"
// Relative headroom of the capacity certificate (flow_network.h, invariant
// step 3) over users * max_nic: covers the FP error of water-fill
// allocations and of the usage sum.
constexpr double kCertMargin = 1e-9;
// Relative headroom of the violation certificate (invariant step 3) over
// the fabric: covers the FP error of the bottleneck bounds, of the
// water-fill allocations they bound and of the usage sum.
constexpr double kViolationMargin = 1e-6;
// Debug builds run the work a certificate lets an epoch skip and assert
// that it reaches the certificate's verdict.
#ifdef NDEBUG
constexpr bool kCertificateOracle = false;
#else
constexpr bool kCertificateOracle = true;
#endif

bool flow_is_done(double remaining, double rate) noexcept {
  return remaining <= kEpsBytes || (rate > kEpsRate && remaining / rate < 1e-9);
}
}  // namespace

const char* traffic_class_name(TrafficClass cls) noexcept {
  switch (cls) {
    case TrafficClass::kMemory: return "memory";
    case TrafficClass::kStoragePush: return "storage-push";
    case TrafficClass::kStoragePull: return "storage-pull";
    case TrafficClass::kRepoRead: return "repo-read";
    case TrafficClass::kPvfsData: return "pvfs-data";
    case TrafficClass::kAppComm: return "app-comm";
    case TrafficClass::kControl: return "control";
    case TrafficClass::kCount: break;
  }
  return "?";
}

FlowNetwork::FlowNetwork(sim::Simulator& sim, FlowNetworkConfig cfg)
    : sim_(sim), cfg_(cfg) {
  groups_.push_back(Group{kUnlimitedRate});  // group 0: flat network default
}

SwitchGroupId FlowNetwork::add_switch_group(double uplink_Bps) {
  groups_.push_back(Group{uplink_Bps});
  ++topology_gen_;
  return static_cast<SwitchGroupId>(groups_.size() - 1);
}

NodeId FlowNetwork::add_node(double egress_Bps, double ingress_Bps, SwitchGroupId group) {
  assert(group < groups_.size());
  nodes_.push_back(Node{egress_Bps, ingress_Bps, group});
  max_nic_ = std::max({max_nic_, egress_Bps, ingress_Bps});
  ++topology_gen_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

double FlowNetwork::total_traffic_bytes() const noexcept {
  double s = 0;
  for (double t : traffic_) s += t;
  return s;
}

void FlowNetwork::reset_traffic() noexcept {
  for (double& t : traffic_) t = 0;
}

double FlowNetwork::flow_rate(NodeId src, NodeId dst) const noexcept {
  double sum = 0.0;
  for (std::uint32_t s = nodes_[src].out_head; s != kNilIndex; s = flow_slots_[s].out_link.next)
    if (flow_slots_[s].flow.dst == dst) sum += rate_[s];
  return sum;
}

double FlowNetwork::current_rate_sum() const noexcept {
  double sum = 0.0;
  live_bits_.for_each_set([&](std::uint64_t s) { sum += rate_[s]; });
  return sum;
}

std::uint32_t FlowNetwork::alloc_flow_slot() {
  if (free_head_ != kNilIndex) {
    const std::uint32_t slot = free_head_;
    free_head_ = flow_slots_[slot].next_free;
    return slot;
  }
  flow_slots_.emplace_back();
  remaining_.push_back(0.0);
  rate_.push_back(0.0);
  live_bits_.grow(flow_slots_.size());
  return static_cast<std::uint32_t>(flow_slots_.size() - 1);
}

// --- constraint incidence ----------------------------------------------------

double FlowNetwork::constraint_cap(std::uint32_t c) const noexcept {
  const std::size_t n = nodes_.size();
  if (c < n) {
    const Node& nd = nodes_[c];
    return nd.flap_holds ? 0.0 : nd.egress_Bps * nd.egress_scale;
  }
  if (c < 2 * n) {
    const Node& nd = nodes_[c - n];
    return nd.flap_holds ? 0.0 : nd.ingress_Bps * nd.ingress_scale;
  }
  if (c == 2 * n) return cfg_.fabric_Bps;
  const std::size_t g = groups_.size();
  const std::size_t up_base = 2 * n + 1;
  if (c < up_base + g) return groups_[c - up_base].uplink_Bps;
  return groups_[c - up_base - g].uplink_Bps;
}

void FlowNetwork::compute_incidence(FlowSlot& fs) noexcept {
  const std::size_t n = nodes_.size();
  const std::size_t g = groups_.size();
  const Flow& f = fs.flow;
  fs.arena_bound_gen = 0;  // constraint set changed: stale arena indices
  // Local constraints first (component partitioning only looks at [0], [1]).
  fs.n_constraints = 0;
  fs.constraints[fs.n_constraints++] = f.src;
  fs.constraints[fs.n_constraints++] = static_cast<std::uint32_t>(n + f.dst);
  fs.constraints[fs.n_constraints++] = static_cast<std::uint32_t>(2 * n);
  const SwitchGroupId gs = nodes_[f.src].group;
  const SwitchGroupId gd = nodes_[f.dst].group;
  if (gs != gd) {
    fs.constraints[fs.n_constraints++] = static_cast<std::uint32_t>(2 * n + 1 + gs);
    fs.constraints[fs.n_constraints++] = static_cast<std::uint32_t>(2 * n + 1 + g + gd);
  }
  if (shared_users_.size() < constraint_space()) {
    shared_users_.resize(constraint_space(), 0);
    user_limit_.resize(constraint_space(), kNoLimit);
  }
}

void FlowNetwork::refresh_certificate() {
  const std::size_t cspace = constraint_space();
  if (shared_users_.size() < cspace) shared_users_.resize(cspace, 0);
  user_limit_.assign(shared_users_.size(), kNoLimit);
  over_limit_ = 0;
  for (std::size_t c = 2 * nodes_.size(); c < cspace; ++c) {
    // users * max_nic_ <= cap / (1 + kCertMargin). An uncapped constraint
    // (inf / finite, or NaN for inf / inf) keeps kNoLimit.
    const double users =
        constraint_cap(static_cast<std::uint32_t>(c)) / (1.0 + kCertMargin) / max_nic_;
    if (users < static_cast<double>(kNoLimit))
      user_limit_[c] = static_cast<std::uint32_t>(std::floor(users));
    if (shared_users_[c] > user_limit_[c]) ++over_limit_;
  }
}

std::uint32_t FlowNetwork::alloc_component() {
  std::uint32_t id;
  if (comp_free_ != kNilIndex) {
    id = comp_free_;
    comp_free_ = comps_[id].next_free;
  } else {
    comps_.emplace_back();
    id = static_cast<std::uint32_t>(comps_.size() - 1);
  }
  Component& c = comps_[id];
  c.count = 0;
  c.head = kNilIndex;
  c.next_free = kNilIndex;
  ++c.gen;  // invalidates NIC-owner entries from previous occupants
  c.dirty = false;
  c.in_use = true;
  ++live_components_;
  return id;
}

void FlowNetwork::release_component(std::uint32_t id) noexcept {
  comps_[id].in_use = false;
  comps_[id].next_free = comp_free_;
  comp_free_ = id;
  --live_components_;
}

void FlowNetwork::dirty_component(std::uint32_t id) {
  Component& c = comps_[id];
  if (c.dirty) return;
  c.dirty = true;
  dirty_comps_.push_back(id);
}

void FlowNetwork::detach_from_component(std::uint32_t slot) {
  FlowSlot& fs = flow_slots_[slot];
  if (fs.comp == kNilIndex) return;
  const std::uint32_t id = fs.comp;
  unlink(comps_[id].head, slot, &FlowSlot::comp_link);
  dirty_component(id);
  if (--comps_[id].count == 0) release_component(id);
  fs.comp = kNilIndex;
}

void FlowNetwork::link_front(std::uint32_t& head, std::uint32_t slot,
                             Link FlowSlot::*l) noexcept {
  Link& x = flow_slots_[slot].*l;
  x.prev = kNilIndex;
  x.next = head;
  if (head != kNilIndex) (flow_slots_[head].*l).prev = slot;
  head = slot;
}

void FlowNetwork::unlink(std::uint32_t& head, std::uint32_t slot,
                         Link FlowSlot::*l) noexcept {
  const Link x = flow_slots_[slot].*l;
  if (x.prev != kNilIndex)
    (flow_slots_[x.prev].*l).next = x.next;
  else
    head = x.next;
  if (x.next != kNilIndex) (flow_slots_[x.next].*l).prev = x.prev;
}

void FlowNetwork::release_flow_slot(std::uint32_t slot) {
  FlowSlot& fs = flow_slots_[slot];
  const Flow& f = fs.flow;
  // The departure dirties its component so the survivors get re-solved.
  detach_from_component(slot);
  comp_heap_erase(slot);
  unlink(nodes_[f.src].out_head, slot, &FlowSlot::out_link);
  unlink(nodes_[f.dst].in_head, slot, &FlowSlot::in_link);
  for (std::uint8_t k = 2; k < fs.n_constraints; ++k) drop_shared_user(fs.constraints[k]);
  fs.op = nullptr;
  fs.in_use = false;
  rate_[slot] = 0.0;  // a dead slot's remaining stays put under advance_to_now
  live_bits_.reset(slot);
  fs.next_free = free_head_;
  free_head_ = slot;
  --live_flows_;
}

void FlowNetwork::apply_rate(std::uint32_t slot, double new_rate) {
  if (new_rate != rate_[slot]) {
    rate_[slot] = new_rate;
    push_projection(slot);
  }
}

double FlowNetwork::projection(std::uint32_t slot) const noexcept {
  const double rate = rate_[slot];
  return rate > kEpsRate ? sim_.now() + remaining_[slot] / rate : kUnlimitedRate;
}

void FlowNetwork::push_projection(std::uint32_t slot) {
  const double t = projection(slot);
  if (!std::isfinite(t)) {
    comp_heap_erase(slot);  // stalled flows carry no completion entry
    return;
  }
  std::uint32_t pos = flow_slots_[slot].heap_pos;
  if (pos == kNilIndex) {
    pos = static_cast<std::uint32_t>(comp_heap_.size());
    comp_heap_.emplace_back();  // the hole comp_heap_place fills
  }
  comp_heap_place(pos, CompEntry{t, slot});
}

void FlowNetwork::comp_heap_erase(std::uint32_t slot) {
  const std::uint32_t pos = flow_slots_[slot].heap_pos;
  if (pos == kNilIndex) return;
  flow_slots_[slot].heap_pos = kNilIndex;
  const CompEntry last = comp_heap_.back();
  comp_heap_.pop_back();
  if (pos < comp_heap_.size()) comp_heap_place(pos, last);
}

// Fill the hole at `pos` with `e`, sifting up or down as the order requires
// and recording the position of every entry that moves.
void FlowNetwork::comp_heap_place(std::uint32_t pos, CompEntry e) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!comp_before(e, comp_heap_[parent])) break;
    comp_heap_[pos] = comp_heap_[parent];
    flow_slots_[comp_heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  const std::size_t n = comp_heap_.size();
  for (;;) {
    std::size_t child = 2 * std::size_t{pos} + 1;
    if (child >= n) break;
    if (child + 1 < n && comp_before(comp_heap_[child + 1], comp_heap_[child])) ++child;
    if (!comp_before(comp_heap_[child], e)) break;
    comp_heap_[pos] = comp_heap_[child];
    flow_slots_[comp_heap_[pos].slot].heap_pos = pos;
    pos = static_cast<std::uint32_t>(child);
  }
  comp_heap_[pos] = e;
  flow_slots_[e.slot].heap_pos = pos;
}

// Publish every solved rate with one heap rebuild instead of one sift per
// changed flow: changed keys are rewritten in place, stalled flows drop out
// and newly projected ones are appended, then one heapify and one position
// pass restore the heap. An unchanged rate keeps its old projection, exactly
// as apply_rate leaves it; pops follow the total (t, slot) order, so the
// layout the heapify leaves cannot change which entry pops when.
void FlowNetwork::apply_rates_bulk() {
  for (const SolverItem& it : items_) {
    const std::uint32_t slot = it.slot;
    if (it.alloc == rate_[slot]) continue;
    rate_[slot] = it.alloc;
    const double t = projection(slot);
    std::uint32_t& pos = flow_slots_[slot].heap_pos;
    if (!std::isfinite(t)) {
      // Stalled: an infinite key marks the entry for removal below.
      if (pos != kNilIndex) comp_heap_[pos].t = kUnlimitedRate;
      pos = kNilIndex;
    } else if (pos == kNilIndex) {
      comp_heap_.push_back(CompEntry{t, slot});
    } else {
      comp_heap_[pos].t = t;
    }
  }
  // Every live entry's key is finite (push_projection stores no other).
  comp_heap_.erase(std::remove_if(comp_heap_.begin(), comp_heap_.end(),
                                  [](const CompEntry& e) { return !std::isfinite(e.t); }),
                   comp_heap_.end());
  const auto after = [](const CompEntry& a, const CompEntry& b) { return comp_before(b, a); };
  std::make_heap(comp_heap_.begin(), comp_heap_.end(), after);
  for (std::uint32_t pos = 0; pos < comp_heap_.size(); ++pos)
    flow_slots_[comp_heap_[pos].slot].heap_pos = pos;
  assert(std::is_heap(comp_heap_.begin(), comp_heap_.end(), after));
#ifndef NDEBUG
  for (std::uint32_t pos = 0; pos < comp_heap_.size(); ++pos)
    assert(flow_slots_[comp_heap_[pos].slot].heap_pos == pos);  // one entry per slot
#endif
}

void FlowNetwork::mark_dirty() {
  if (settle_pending_) return;
  settle_pending_ = true;
  // Fast-lane push, but cancellable: a completion timer firing in the same
  // instant retracts the settle because its own solve covers the epoch.
  settle_timer_ = sim_.post_cancellable(
      [](void* net, void*) { static_cast<FlowNetwork*>(net)->on_settle(); }, this);
}

void FlowNetwork::on_settle() {
  settle_pending_ = false;
  advance_to_now();
  solve_epoch();
  schedule_completion();
}

void FlowNetwork::start_leg(FlowOp* op) {
  assert(op->bytes > 0);
  if (op->src == op->dst) {
    // Local copy: costs loopback time, never leaves the node, not counted
    // as network traffic.
    sim_.schedule(op->bytes / kLoopbackBps, [op] { op->step(op); });
    return;
  }
  assert(op->src < nodes_.size() && op->dst < nodes_.size());
  sim_.schedule(cfg_.latency_s, [this, op] { begin_flow(op); });
}

void FlowNetwork::begin_flow(FlowOp* op) {
  if (!nodes_[op->src].up || !nodes_[op->dst].up) {
    // An endpoint crashed before the leg's latency elapsed: the flow never
    // materializes and its bytes are never counted. Step through the same
    // zero-delay event a completion would use.
    op->failed = true;
    sim_.post([](void* p, void*) { auto* o = static_cast<FlowOp*>(p); o->step(o); }, op);
    return;
  }
  traffic_[static_cast<std::size_t>(op->cls)] += op->bytes;

  // No byte advance here: the slot carries rate 0 until the settle, and
  // every reader of remaining_ advances first over the same interval.
  const std::uint32_t slot = alloc_flow_slot();
  FlowSlot& fs = flow_slots_[slot];
  fs.in_use = true;
  fs.op = op;
  live_bits_.set(slot);
  Flow& f = fs.flow;
  f.src = op->src;
  f.dst = op->dst;
  f.cap = op->cap;
  remaining_[slot] = op->bytes;
  assert(rate_[slot] == 0.0);  // released slots hold rate 0
  assert(fs.heap_pos == kNilIndex);  // released slots hold no heap entry
  fs.comp = kNilIndex;  // affected at the next settle (comp == nil)
  compute_incidence(fs);
  for (std::uint8_t k = 2; k < fs.n_constraints; ++k) add_shared_user(fs.constraints[k]);
  link_front(nodes_[f.src].out_head, slot, &FlowSlot::out_link);
  link_front(nodes_[f.dst].in_head, slot, &FlowSlot::in_link);
  // The arrival can merge with any component reachable through its
  // endpoints: dirty whatever currently owns those NIC constraints. The
  // generation check rejects entries whose owner has dissolved — a live
  // clean component always has fresh entries for all its NIC constraints
  // (its last publish wrote them and nothing else may touch them).
  const std::size_t nn = nodes_.size();
  if (nic_owner_.size() < 2 * nn) {
    nic_owner_.resize(2 * nn, kNilIndex);
    nic_owner_gen_.resize(2 * nn, 0);
  }
  for (int k = 0; k < 2; ++k) {
    const std::uint32_t c = fs.constraints[k];
    const std::uint32_t owner = nic_owner_[c];
    if (owner != kNilIndex && comps_[owner].in_use &&
        comps_[owner].gen == nic_owner_gen_[c])
      dirty_component(owner);
  }
  arrivals_.push_back(slot);
  ++live_flows_;
  ++flows_started_;
  // Epoch batching: the max-min solve is deferred to a zero-delay settle
  // event, so every other arrival in this virtual instant shares it. The
  // flow carries rate 0 for zero virtual time, which integrates to nothing.
  mark_dirty();
}

// --- fault injection ---------------------------------------------------------

void FlowNetwork::dirty_node_components(NodeId n) {
  const std::size_t nn = nodes_.size();
  const std::uint32_t cs[2] = {n, static_cast<std::uint32_t>(nn + n)};
  for (const std::uint32_t c : cs) {
    if (c >= nic_owner_.size()) continue;
    const std::uint32_t owner = nic_owner_[c];
    if (owner != kNilIndex && comps_[owner].in_use &&
        comps_[owner].gen == nic_owner_gen_[c])
      dirty_component(owner);
  }
}

void FlowNetwork::set_node_up(NodeId n, bool up) {
  Node& nd = nodes_[n];
  if (nd.up == up) return;
  nd.up = up;
  if (!up) {
    ++nd.epoch;  // anything staged on the node is lost
    fail_flows_at(n);
    return;
  }
  if (up_waiters_.size() < nodes_.size()) up_waiters_.resize(nodes_.size());
  for (sim::WaitNode* w = up_waiters_[n].drain(); w != nullptr; w = w->next)
    sim_.post(w->fn, w->a, w->b);
}

void FlowNetwork::scale_node_capacity(NodeId n, double egress_mult,
                                      double ingress_mult) {
  Node& nd = nodes_[n];
  nd.egress_scale *= egress_mult;
  nd.ingress_scale *= ingress_mult;
  // The certificate bounds every rate by the largest NIC capacity; faults
  // are rare, so a node pass recomputes it.
  double max_nic = 0.0;
  for (const Node& x : nodes_)
    max_nic = std::max({max_nic, x.egress_Bps * x.egress_scale, x.ingress_Bps * x.ingress_scale});
  if (max_nic != max_nic_) {
    max_nic_ = max_nic;
    refresh_certificate();
  }
  dirty_node_components(n);
  mark_dirty();
}

void FlowNetwork::set_link_flapped(NodeId n, bool flapped) {
  Node& nd = nodes_[n];
  if (flapped)
    ++nd.flap_holds;
  else if (nd.flap_holds > 0)
    --nd.flap_holds;
  dirty_node_components(n);
  mark_dirty();
}

void FlowNetwork::fail_flows_at(NodeId n) {
  advance_to_now();
  // The node's flows come from its incidence lists. Failed ops are posted in
  // ascending slot order (post order is part of the timeline), and a flow
  // from n to itself would sit on both lists.
  finished_scratch_.clear();
  for (std::uint32_t s = nodes_[n].out_head; s != kNilIndex; s = flow_slots_[s].out_link.next)
    finished_scratch_.push_back(s);
  for (std::uint32_t s = nodes_[n].in_head; s != kNilIndex; s = flow_slots_[s].in_link.next)
    finished_scratch_.push_back(s);
  if (finished_scratch_.empty()) return;
  std::sort(finished_scratch_.begin(), finished_scratch_.end());
  finished_scratch_.erase(std::unique(finished_scratch_.begin(), finished_scratch_.end()),
                          finished_scratch_.end());
  if (settle_pending_) {
    // The inline solve below covers any arrivals already queued this instant.
    settle_timer_.cancel();
    settle_pending_ = false;
  }
  // Same ordering discipline as on_completion_timer: step the ops while the
  // slots are alive, free the slots before the solve.
  for (const std::uint32_t slot : finished_scratch_) {
    FlowSlot& fs = flow_slots_[slot];
    FlowOp* op = fs.op;
    op->failed = true;
    // The un-sent remainder never crossed the wire: uncount it (bytes are
    // charged in full at flow start).
    traffic_[static_cast<std::size_t>(op->cls)] -= remaining_[slot];
    sim_.post([](void* p, void*) { auto* o = static_cast<FlowOp*>(p); o->step(o); },
              op);
    release_flow_slot(slot);
  }
  solve_epoch();
  schedule_completion();
}

void FlowNetwork::advance_to_now() {
  const double now = sim_.now();
  const double dt = now - last_advance_;
  if (dt > 0) {
    // Whole slab, no liveness test (see flow_slots_): a live flow takes the
    // same multiply, subtract and clamp as a per-flow update would.
    double* const rem = remaining_.data();
    const double* const rate = rate_.data();
    const std::size_t n = remaining_.size();
#ifndef NDEBUG
    for (std::size_t s = 0; s < n; ++s) assert(live_bits_.test(s) || rate[s] == 0.0);
#endif
    for (std::size_t s = 0; s < n; ++s) {
      const double r = rem[s] - rate[s] * dt;
      rem[s] = r < 0 ? 0 : r;
    }
  }
  last_advance_ = now;
}

// Stamp into cmap_ (under a fresh cmap_gen_, so nothing is cleared) how many
// of items_[first_item, +n_items) use each constraint at incidence positions
// [k_from, k_to).
void FlowNetwork::count_users(std::size_t first_item, std::size_t n_items, std::uint8_t k_from,
                              std::uint8_t k_to) {
  const std::size_t cspace = constraint_space();
  if (cmap_epoch_.size() < cspace) cmap_epoch_.resize(cspace, 0);
  if (cmap_.size() < cspace) cmap_.resize(cspace, 0);
  ++cmap_gen_;
  for (std::size_t i = first_item; i < first_item + n_items; ++i) {
    const FlowSlot& fs = flow_slots_[items_[i].slot];
    for (std::uint8_t k = k_from; k < std::min(k_to, fs.n_constraints); ++k) {
      const std::uint32_t c = fs.constraints[k];
      if (cmap_epoch_[c] != cmap_gen_) {
        cmap_epoch_[c] = cmap_gen_;
        cmap_[c] = 1;
      } else {
        ++cmap_[c];
      }
    }
  }
}

// Progressive filling over one already-partitioned component (items_
// [first_item, first_item + n_items)): raise the rate of every unfrozen flow
// uniformly until some constraint or flow cap saturates; freeze the flows it
// binds; repeat. Constraints are compacted per call; non-contained shared
// constraints are skipped (the escalated global solve goes through
// water_fill_escalated, which reuses the persistent arena layout instead).
void FlowNetwork::water_fill(std::size_t first_item, std::size_t n_items) {
  const std::size_t cspace = constraint_space();
  const std::uint32_t n_local = static_cast<std::uint32_t>(2 * nodes_.size());
  // Containment pre-pass: count this component's users per shared
  // constraint.
  count_users(first_item, n_items, 2, 5);
  if (citem_epoch_.size() < cspace) citem_epoch_.resize(cspace, 0);
  if (citem_.size() < cspace) citem_.resize(cspace, kNilIndex);

  // Compact the participating constraints and seed capacities/user counts.
  // The containment counts above stay readable under cmap_gen_; the compact
  // index uses the second stamp array.
  ++citem_gen_used_;
  const std::uint64_t cgen = citem_gen_used_;
  wf_cap_.clear();
  wf_users_.clear();
  for (std::size_t i = first_item; i < first_item + n_items; ++i) {
    SolverItem& it = items_[i];
    FlowSlot& fs = flow_slots_[it.slot];
    it.n_cidx = 0;
    for (std::uint8_t k = 0; k < fs.n_constraints; ++k) {
      const std::uint32_t c = fs.constraints[k];
      const bool contained =
          c < n_local || (cmap_epoch_[c] == cmap_gen_ && cmap_[c] == shared_users_[c]);
      if (!contained) continue;
      std::uint32_t idx;
      if (citem_epoch_[c] != cgen) {
        citem_epoch_[c] = cgen;
        idx = static_cast<std::uint32_t>(wf_cap_.size());
        citem_[c] = idx;
        wf_cap_.push_back(constraint_cap(c));
        wf_users_.push_back(0);
      } else {
        idx = citem_[c];
      }
      it.cidx[it.n_cidx++] = idx;
      ++wf_users_[idx];
    }
    it.alloc = 0.0;
    it.frozen = false;
  }
  run_fill(first_item, n_items);
}

void FlowNetwork::reset_arena() {
  arena_idx_.assign(constraint_space(), kNilIndex);
  arena_constraints_.clear();
  ++arena_gen_;  // every cached slot binding is now stale
}

// Escalated global solve over all live flows (items_ holds every one) with
// the full constraint set. The dense constraint->index layout persists
// across epochs (reset only on topology change) and each flow slot caches
// its indices, so in the saturated lockstep regime — where this runs nearly
// every epoch — only capacities are reseeded and user counts recounted.
// The fill math is identical to the per-call compaction: zero-user arena
// entries never produce a water-fill increment.
void FlowNetwork::water_fill_escalated() {
  if (arena_idx_.size() < constraint_space()) reset_arena();
  wf_cap_.resize(arena_constraints_.size());
  for (std::size_t i = 0; i < arena_constraints_.size(); ++i)
    wf_cap_[i] = constraint_cap(arena_constraints_[i]);
  wf_users_.assign(arena_constraints_.size(), 0);
  for (SolverItem& it : items_) {
    FlowSlot& fs = flow_slots_[it.slot];
    if (fs.arena_bound_gen != arena_gen_) {
      for (std::uint8_t k = 0; k < fs.n_constraints; ++k) {
        const std::uint32_t c = fs.constraints[k];
        std::uint32_t idx = arena_idx_[c];
        if (idx == kNilIndex) {
          idx = static_cast<std::uint32_t>(arena_constraints_.size());
          arena_idx_[c] = idx;
          arena_constraints_.push_back(c);
          wf_cap_.push_back(constraint_cap(c));
          wf_users_.push_back(0);
        }
        fs.acidx[k] = idx;
      }
      fs.arena_bound_gen = arena_gen_;
    }
    it.n_cidx = fs.n_constraints;
    for (std::uint8_t k = 0; k < fs.n_constraints; ++k) {
      it.cidx[k] = fs.acidx[k];
      ++wf_users_[fs.acidx[k]];
    }
    it.alloc = 0.0;
    it.frozen = false;
  }
  run_fill(0, items_.size());
}

// The shared progressive-filling loop over items_[first_item, +n_items)
// with capacities/user counts already seeded in wf_cap_/wf_users_.
void FlowNetwork::run_fill(std::size_t first_item, std::size_t n_items) {
  std::size_t unfrozen = n_items;
  while (unfrozen > 0) {
    // Smallest uniform increment that saturates a constraint or a flow cap.
    double inc = kUnlimitedRate;
    for (std::size_t c = 0; c < wf_cap_.size(); ++c) {
      if (wf_users_[c] > 0 && std::isfinite(wf_cap_[c]))
        inc = std::min(inc, wf_cap_[c] / wf_users_[c]);
    }
    for (std::size_t i = first_item; i < first_item + n_items; ++i) {
      const SolverItem& it = items_[i];
      if (!it.frozen && std::isfinite(it.f->cap))
        inc = std::min(inc, it.f->cap - it.alloc);
    }
    if (!std::isfinite(inc)) break;  // no binding constraint (shouldn't happen)
    if (inc < 0) inc = 0;

    for (std::size_t i = first_item; i < first_item + n_items; ++i) {
      SolverItem& it = items_[i];
      if (it.frozen) continue;
      it.alloc += inc;
      for (std::uint8_t c = 0; c < it.n_cidx; ++c) wf_cap_[it.cidx[c]] -= inc;
    }
    // Freeze flows whose cap is met or that cross a saturated constraint.
    bool froze_any = false;
    for (std::size_t i = first_item; i < first_item + n_items; ++i) {
      SolverItem& it = items_[i];
      if (it.frozen) continue;
      const bool cap_hit = std::isfinite(it.f->cap) && it.alloc >= it.f->cap - kEpsRate;
      bool constraint_hit = false;
      for (std::uint8_t c = 0; c < it.n_cidx; ++c) {
        if (wf_cap_[it.cidx[c]] <= kEpsRate) {
          constraint_hit = true;
          break;
        }
      }
      if (cap_hit || constraint_hit) {
        it.frozen = true;
        froze_any = true;
        --unfrozen;
        for (std::uint8_t c = 0; c < it.n_cidx; ++c) --wf_users_[it.cidx[c]];
      }
    }
    if (!froze_any && inc <= kEpsRate) break;  // numerical safety
  }
}

// Usage walk: total usage of every shared constraint, accumulated in one
// canonical slot-order pass over cached + fresh rates (identical
// accumulation order whichever components were re-solved, so the escalation
// decision cannot diverge between ablation modes). Freshly solved slots are
// recognized by their solve-pass stamp instead of an O(slab) slot->item map
// rebuild.
bool FlowNetwork::shared_capacity_exceeded() {
  const std::uint32_t n_local = static_cast<std::uint32_t>(2 * nodes_.size());
  const std::size_t cspace = constraint_space();
  for (std::uint32_t c = n_local; c < cspace; ++c) usage_[c] = 0.0;
  ++solve_pass_gen_;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    FlowSlot& fs = flow_slots_[items_[i].slot];
    fs.item_idx = static_cast<std::uint32_t>(i);
    fs.solve_gen = solve_pass_gen_;
  }
  live_bits_.for_each_set([&](std::uint64_t s) {
    const FlowSlot& fs = flow_slots_[s];
    const double r =
        fs.solve_gen == solve_pass_gen_ ? items_[fs.item_idx].alloc : rate_[s];
    for (std::uint8_t k = 2; k < fs.n_constraints; ++k) usage_[fs.constraints[k]] += r;
  });
  for (std::uint32_t c = n_local; c < cspace; ++c) {
    const double cap = constraint_cap(c);
    if (std::isfinite(cap) && usage_[c] > cap + kEpsRate) return true;
  }
  return false;
}

// Violation certificate (invariant step 3): items_ holds every live flow in
// at least two groups, so no group's water-fill contains the fabric, and a
// flow's relaxed rate is at least its bottleneck bound: the least of its cap,
// its NICs' capacity per user and its uplinks' capacity per user. True when
// those bounds alone overrun the fabric, so the usage walk would escalate.
// A flow whose cap and NICs are all unlimited has no bound its water-fill
// honours (it may stop below an uplink's share), so it voids the proof.
bool FlowNetwork::fabric_overrun_proven() {
  const double fabric = cfg_.fabric_Bps;
  if (!std::isfinite(fabric)) return false;
  count_users(0, items_.size(), 0, 2);  // NIC users
  double bound_sum = 0.0;
  for (const SolverItem& it : items_) {
    const FlowSlot& fs = flow_slots_[it.slot];
    double bound = it.f->cap;
    for (int k = 0; k < 2; ++k)
      bound = std::min(bound, constraint_cap(fs.constraints[k]) / cmap_[fs.constraints[k]]);
    if (!std::isfinite(bound)) return false;
    for (std::uint8_t k = 3; k < fs.n_constraints; ++k)
      bound = std::min(bound, constraint_cap(fs.constraints[k]) / shared_users_[fs.constraints[k]]);
    bound_sum += bound;
  }
  return bound_sum > fabric * (1.0 + kViolationMargin) +
                         kEpsRate * static_cast<double>(items_.size() + 1);
}

// One settle epoch: re-solve only the dirty region (see the header's
// "Incremental solver invariants"), validate shared constraints, escalate to
// a global solve when one is violated, publish rates and components.
void FlowNetwork::solve_epoch() {
  ++recompute_count_;
  const bool topo_changed = solved_topology_gen_ != topology_gen_;
  solved_topology_gen_ = topology_gen_;
  const std::size_t cspace = constraint_space();
  if (shared_users_.size() < cspace) shared_users_.resize(cspace, 0);
  if (usage_.size() < cspace) usage_.resize(cspace, 0.0);
  if (topo_changed) {
    std::fill(shared_users_.begin(), shared_users_.end(), 0u);
    reset_arena();  // constraint ids shifted: the dense layout is invalid
  }

  // Phase 1 — collect the affected flows in canonical slot order. Affected
  // = new arrival, member of a dirty component, ablated-off, or any flow
  // after a topology change (incidence ids shift with node count).
  items_.clear();
  const auto collect = [&](std::uint32_t slot) {
    detach_from_component(slot);
    items_.push_back(SolverItem{&flow_slots_[slot].flow, slot, 0.0, false, 0, {}, 0});
  };
  // Worklist size bound: dirty members plus arrivals.
  std::size_t pending = arrivals_.size();
  for (const std::uint32_t id : dirty_comps_)
    if (comps_[id].in_use) pending += comps_[id].count;
  if (topo_changed || !cfg_.incremental || 2 * pending >= live_flows_) {
    // Live scan (word-skipping bitmap, so it pays for live flows, not for
    // the slab's high-water mark): required when every flow is affected,
    // and cheaper than walk+sort when the dirty region covers most of them.
    live_bits_.for_each_set([&](std::uint64_t s) {
      const std::uint32_t slot = static_cast<std::uint32_t>(s);
      FlowSlot& fs = flow_slots_[slot];
      if (topo_changed) {
        compute_incidence(fs);
        for (std::uint8_t k = 2; k < fs.n_constraints; ++k) ++shared_users_[fs.constraints[k]];
      }
      const bool affected = !cfg_.incremental || topo_changed || fs.comp == kNilIndex ||
                            comps_[fs.comp].dirty;
      if (affected) collect(slot);
    });
  } else {
    // Worklist: the members of the dirty components plus the arrivals still
    // awaiting a solve, sorted back into slot order (no slot can appear
    // twice; see "Incremental solver invariants" step 1).
    worklist_.clear();
    for (const std::uint32_t id : dirty_comps_) {
      if (!comps_[id].in_use) continue;  // dissolved by departures
      for (std::uint32_t s = comps_[id].head; s != kNilIndex; s = flow_slots_[s].comp_link.next)
        worklist_.push_back(s);
    }
    for (const std::uint32_t s : arrivals_)
      if (flow_slots_[s].in_use) worklist_.push_back(s);  // crashed arrivals are gone
    std::sort(worklist_.begin(), worklist_.end());
    assert(std::adjacent_find(worklist_.begin(), worklist_.end()) == worklist_.end());
    for (const std::uint32_t s : worklist_) collect(s);
  }
  if (topo_changed) refresh_certificate();  // shared_users_ was just recounted

  bool escalated = false;
  std::size_t n_groups = 0;
  // The dirty region is every live flow (collected and detached in slot
  // order): the violation certificate applies and an escalation reuses it.
  const bool whole_fleet = items_.size() == live_flows_;
  if (!items_.empty()) {
    // Phase 2 — partition the affected flows into connected components via
    // union-find over their NIC constraints (roots are minimal indices, so
    // first-seen group order and in-group slot order are both canonical).
    if (citem_epoch_.size() < cspace) citem_epoch_.resize(cspace, 0);
    if (citem_.size() < cspace) citem_.resize(cspace, kNilIndex);
    ++citem_gen_used_;
    const std::uint64_t pgen = citem_gen_used_;
    const auto find_root = [&](std::uint32_t i) {
      while (items_[i].uf_parent != i) {
        items_[i].uf_parent = items_[items_[i].uf_parent].uf_parent;
        i = items_[i].uf_parent;
      }
      return i;
    };
    for (std::uint32_t i = 0; i < items_.size(); ++i) items_[i].uf_parent = i;
    const auto link = [&](std::uint32_t a, std::uint32_t b) {
      std::uint32_t ra = find_root(a), rb = find_root(b);
      if (ra != rb) items_[std::max(ra, rb)].uf_parent = std::min(ra, rb);
    };
    for (std::uint32_t i = 0; i < items_.size(); ++i) {
      const FlowSlot& fs = flow_slots_[items_[i].slot];
      for (int k = 0; k < 2; ++k) {
        const std::uint32_t c = fs.constraints[k];
        if (citem_epoch_[c] != pgen) {
          citem_epoch_[c] = pgen;
          citem_[c] = i;
        } else {
          link(i, citem_[c]);
        }
      }
    }
    // Dense group ids in first-seen (= ascending root) order, then a stable
    // counting-sort so each group's items are contiguous in slot order.
    // Ids that never decrease along items_ (one group, or singletons in slot
    // order) already are: that permutation is the identity and is skipped.
    group_of_item_.resize(items_.size());
    group_start_.clear();
    bool in_group_order = true;
    for (std::uint32_t i = 0; i < items_.size(); ++i) {
      const std::uint32_t r = find_root(i);
      if (r == i) {
        group_of_item_[i] = static_cast<std::uint32_t>(n_groups++);
        group_start_.push_back(0);
      } else {
        group_of_item_[i] = group_of_item_[r];
        in_group_order = in_group_order && group_of_item_[i] == n_groups - 1;
      }
      ++group_start_[group_of_item_[i]];
    }
    std::uint32_t acc = 0;
    for (std::size_t g = 0; g < n_groups; ++g) {
      const std::uint32_t sz = group_start_[g];
      group_start_[g] = acc;
      acc += sz;
    }
    group_start_.push_back(acc);

    // Phase 3 — the violation certificate (invariant step 3): when the
    // dirty region is every live flow and its bottleneck bounds overrun the
    // fabric, the decomposition is bound to be thrown away, so the epoch
    // escalates without solving it.
    const bool proven =
        over_limit_ != 0 && n_groups >= 2 && whole_fleet && fabric_overrun_proven();

    // Phase 4 — solve each dirty component independently. The water-fill
    // operates on contiguous runs of items_, so permute items_ itself into
    // group order (stable: ascending within a group); items_scratch_ then
    // keeps the slot-ordered collection.
    bool permuted = false;
    if (!proven || kCertificateOracle) {
      if (!in_group_order) {
        item_order_.resize(items_.size());
        scatter_pos_.assign(group_start_.begin(), group_start_.end() - 1);
        for (std::uint32_t i = 0; i < items_.size(); ++i)
          item_order_[scatter_pos_[group_of_item_[i]]++] = i;
        items_scratch_.resize(items_.size());
        for (std::uint32_t i = 0; i < items_.size(); ++i)
          items_scratch_[i] = items_[item_order_[i]];
        items_.swap(items_scratch_);
        permuted = true;
      }
      for (std::size_t g = 0; g < n_groups; ++g)
        water_fill(group_start_[g], group_start_[g + 1] - group_start_[g]);
    }

    // Phase 5 — validate shared constraints (invariant step 3): the
    // violation certificate's verdict, the O(1) capacity certificate, or
    // the usage walk when neither settles the epoch.
    if (proven) {
      ++proven_escalations_;
      escalated = true;
#ifndef NDEBUG
      // The violation certificate's oracle: the walk it skipped escalates.
      const bool exceeded = shared_capacity_exceeded();
      assert(exceeded);
#endif
    } else if (over_limit_ == 0) {
      ++certified_epochs_;
#ifndef NDEBUG
      // The certificate's oracle: the walk it skipped finds no violation.
      // The walk writes only its own scratch (usage_, solve stamps).
      const bool exceeded = shared_capacity_exceeded();
      assert(!exceeded);
#endif
    } else {
      ++validation_walks_;
      escalated = shared_capacity_exceeded();
    }

    // Phase 6 — escalation: a shared constraint binds across components, so
    // the decomposition is invalid this epoch. Solve every live flow as one
    // component with the full constraint set (the pre-incremental global
    // algorithm) and merge them, so later churn re-solves — and re-attempts
    // splitting — the whole coupled region.
    if (escalated) {
      ++escalations_;
      if (whole_fleet) {
        if (permuted) items_.swap(items_scratch_);  // back to slot order
      } else {
        items_.clear();
        live_bits_.for_each_set([&](std::uint64_t s) {
          const std::uint32_t slot = static_cast<std::uint32_t>(s);
          detach_from_component(slot);  // clean components join the mega solve
          items_.push_back(SolverItem{&flow_slots_[slot].flow, slot, 0.0, false, 0, {}, 0});
        });
      }
      water_fill_escalated();
      n_groups = 1;
      group_start_.clear();
      group_start_.push_back(0);
      group_start_.push_back(static_cast<std::uint32_t>(items_.size()));
      group_of_item_.assign(items_.size(), 0);
    }
  }

  // Phase 7 — publish: assign (re)built components and their member lists,
  // record NIC-constraint ownership for arrival dirtying, apply rates
  // (projections move only for flows whose rate actually changed; an
  // escalation re-keys the whole completion heap at once).
  if (nic_owner_.size() < 2 * nodes_.size()) {
    nic_owner_.resize(2 * nodes_.size(), kNilIndex);
    nic_owner_gen_.resize(2 * nodes_.size(), 0);
  }
  for (std::size_t g = 0; g < n_groups; ++g) {
    const std::uint32_t comp = alloc_component();
    Component& c = comps_[comp];
    c.count = group_start_[g + 1] - group_start_[g];
    // Back to front, so head-insertion leaves the member list in slot order.
    for (std::uint32_t i = group_start_[g + 1]; i-- > group_start_[g];) {
      const std::uint32_t slot = items_[i].slot;
      FlowSlot& fs = flow_slots_[slot];
      fs.comp = comp;
      link_front(c.head, slot, &FlowSlot::comp_link);
      for (int k = 0; k < 2; ++k) {
        nic_owner_[fs.constraints[k]] = comp;
        nic_owner_gen_[fs.constraints[k]] = c.gen;
      }
    }
  }
  // The worklists are consumed. Anything queued during this solve (detaches
  // of collected or escalated flows) names components dissolved above.
  dirty_comps_.clear();
  arrivals_.clear();
  solved_components_ += n_groups;
  touched_flows_ += items_.size();
  if (escalated) {
    apply_rates_bulk();
  } else {
    for (SolverItem& it : items_) apply_rate(it.slot, it.alloc);
  }
  assert(comp_heap_.size() <= live_flows_);
}

void FlowNetwork::schedule_completion() {
  // Keep the single completion timer on the earliest projection.
  if (comp_heap_.empty()) {
    completion_timer_.cancel();
    return;
  }
  const double t = comp_heap_.front().t;
  if (completion_timer_.active() && completion_timer_t_ == t) return;
  completion_timer_.cancel();
  completion_timer_ = sim_.schedule_at(t, [this] { on_completion_timer(); });
  completion_timer_t_ = t;
}

void FlowNetwork::on_completion_timer() {
  advance_to_now();
  if (settle_pending_) {
    // This solve will cover any arrivals queued behind us in this instant.
    settle_timer_.cancel();
    settle_pending_ = false;
  }
  // Every due entry is a live flow's current projection. They pop in
  // (t, slot) order, which fixes the order the finished ops are posted in.
  const double now = sim_.now();
  finished_scratch_.clear();
  while (!comp_heap_.empty() && comp_heap_.front().t <= now) {
    const std::uint32_t slot = comp_heap_.front().slot;
    const double rem = remaining_[slot];
    const double rate = rate_[slot];
    if (flow_is_done(rem, rate) || (rate > kEpsRate && now + rem / rate <= now)) {
      // Done, or the residue is below the clock's resolution at this
      // magnitude (re-projecting would spin on the same timestamp).
      finished_scratch_.push_back(slot);
      comp_heap_erase(slot);
    } else {
      // Projection drifted (FP residue): re-key it from the current state,
      // which lands strictly after now.
      push_projection(slot);
    }
  }
  // Stepping an op only enqueues one zero-delay wakeup (exactly what the
  // old intrusive done-Event did), so firing before the recompute is
  // equivalent to after it — but the ops must be captured while their slots
  // are still alive, and the slots must be free before the solve.
  for (std::uint32_t slot : finished_scratch_) {
    sim_.post([](void* p, void*) { auto* op = static_cast<FlowOp*>(p); op->step(op); },
              flow_slots_[slot].op);
    release_flow_slot(slot);
  }
  solve_epoch();
  schedule_completion();
}

}  // namespace hm::net
