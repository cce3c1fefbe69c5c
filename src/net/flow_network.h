// Flow-level network model with max-min fair bandwidth sharing.
//
// Models the Grid'5000-style testbed of the paper: every node has a GbE NIC
// (separate ingress/egress capacity) attached to a shared switch fabric with
// a finite aggregate capacity (the paper measured 117.5 MB/s per NIC and
// ~8 GB/s total on the Cisco Catalyst switch). Transfers are fluid flows;
// whenever a flow starts or finishes, rates are re-assigned by progressive
// filling (water-filling), which yields the max-min fair allocation subject
// to per-flow rate caps (e.g. QEMU's migration speed limit).
//
// This level of abstraction captures exactly the effects the paper's
// evaluation hinges on: pre-copy non-convergence when the dirty rate exceeds
// the NIC share, fabric saturation under 30 concurrent migrations, and
// contention between memory and storage transfer streams.
//
// Engine notes (datacenter-scale sweeps):
//  * Epoch batching — flow arrivals at one virtual timestamp are coalesced
//    into a single deferred max-min solve (a zero-delay "settle" event), so
//    a burst of N chunk pushes costs one recompute instead of N. The solved
//    rates are identical because no virtual time passes inside the epoch.
//  * Component-scoped incremental solving — see "Incremental solver
//    invariants" below: each settle re-runs water-filling only for the
//    connected components containing arrived/departed flows; every other
//    component keeps its cached rates and its completion-heap entries.
//  * transfer()/request_response() are frameless awaitables: a transfer is
//    a FlowOp continuation record embedded in the awaiter (inside the
//    awaiting coroutine's frame), started by one latency timer and resumed
//    straight from the completion heap through one zero-delay event — no
//    nested coroutine frame, no per-transfer done-Event, no allocation.
//  * Flows live in a slab of slots recycled through a free list, so
//    starting a flow performs no per-flow heap allocation in steady state.
//  * Completions come from an indexed min-heap of projected finish times
//    with exactly one entry per flow whose projection is finite, ordered by
//    (projection, slot). Each flow slot records its entry's position, so a
//    rate change re-keys the entry in place and completion, failure,
//    stalling or slot release erase it: the heap never outgrows the live
//    flows and every entry popped is current. An escalated epoch, which
//    re-rates every live flow, re-keys the heap in bulk instead of one
//    sift per flow: it rewrites changed keys in place, drops stalled flows,
//    appends new ones and leaves unchanged-rate entries bit for bit, then
//    restores the heap with one Floyd heapify and one position pass, O(live)
//    rather than O(live log live). Pops follow the total (t, slot) order,
//    so the layout that leaves does not change the timeline.
//  * flow_rate() walks the source node's outgoing-flow list and
//    current_rate_sum() walks the live flows, both on demand: only tests
//    read them, so no epoch pays for keeping them current.
//  * Bytes remaining and rates sit in two dense per-slot arrays, not in
//    the slots: the byte advance that runs every instant is one branch-free
//    multiply-subtract-clamp loop over them (dead slots hold rate 0).
//
// Incremental solver invariants
// -----------------------------
// Constraints split into two classes:
//  * LOCAL: per-node NIC egress/ingress. Each is touched only by flows with
//    that endpoint. Connected components are computed over local constraints
//    alone (two flows are in one component iff they are linked by a chain of
//    shared endpoints).
//  * SHARED: the fabric aggregate and the per-switch-group uplinks. These
//    can span components. A shared constraint is *contained* in a component
//    when every live flow using it belongs to that component; contained
//    constraints participate in the component's water-fill like local ones.
//
// Per settle epoch:
//  1. A component is DIRTY iff a flow arrived into it, departed from it, or
//     the topology changed (which dirties everything). Arrivals dirty every
//     existing component reachable through their endpoints' local
//     constraints (arrivals can merge components; departures can split them
//     — membership is rebuilt from scratch for the dirty region only).
//     The epoch finds the dirty region from worklists, not a live scan:
//     dirtying a component pushes it onto a dirty list (once, when its flag
//     flips) and every arrival is pushed onto an arrival list. Collection
//     gathers the members of the dirty components (each component keeps an
//     intrusive member list, linked at publish in slot order) plus the
//     arrivals still awaiting a solve, then sorts them back into canonical
//     slot order. No slot can appear twice: every slot release (completion
//     or crash) is followed by a solve in the same call, before any arrival
//     can reuse the freed slot, so the arrival list never names a slot
//     twice, and member lists are disjoint and hold no unsolved arrival.
//     The result is exactly the set and order a live scan would collect, so
//     cost is O(dirty + arrivals) per epoch. The live scan remains where it
//     is required or cheaper: after a topology change (every incidence is
//     recomputed), with incremental solving ablated off, and when the dirty
//     region covers at least half the live flows (the escalated
//     mega-component re-solved every epoch).
//  2. Dirty components are re-partitioned and water-filled ignoring
//     non-contained shared constraints; clean components keep their CACHED
//     rates, projections and completion-heap entries untouched.
//  3. Every finite shared constraint must then hold the total usage (cached
//     + freshly solved rates). If none is violated the allocation is the
//     exact global max-min: it is feasible and it is max-min fair for the
//     relaxation, whose feasible set contains the full problem's. A shared
//     constraint that is not binding never determines a water-fill
//     increment, so the per-component solution is bit-identical to the full
//     solve's. Most epochs prove this with an O(1) capacity certificate
//     instead of summing rates. Every flow's water-fill includes both its
//     endpoint NICs, so its rate is at most max_nic, the largest NIC
//     capacity in the network (flaps only lower a capacity, so max_nic
//     ignores them). A shared constraint c therefore cannot be violated
//     while shared_users_[c] * max_nic <= cap(c) / (1 + 1e-9). The 1e-9
//     relative margin, with the walk's kEpsRate slack, covers the FP error
//     of the water-fill allocations and of the usage sum. Each shared
//     constraint keeps the user count it certifies (user_limit_, derived
//     at topology change and whenever max_nic moves), and one counter
//     holds how many constraints are past their limit (over_limit_,
//     adjusted where shared_users_ changes). The epoch is certified when
//     that counter is zero; a non-blocking core has no finite shared
//     constraint and is always certified. Otherwise the usage walk runs:
//     one O(live) pass summing every live flow's rate into its shared
//     constraints in canonical slot order, exactly as the certificate-free
//     solver did, so escalation decisions are unchanged. Debug builds run
//     the walk after a certified epoch too and assert it finds no
//     violation.
//     The opposite proof, a violation certificate, settles most epochs of
//     a saturated fabric before the dirty components are even solved. It
//     applies when the dirty region is every live flow and splits into at
//     least two groups, so no group's water-fill contains the fabric. A
//     max-min flow then gets at least its bottleneck bound (Bertsekas &
//     Gallager, Data Networks, 6.5.2): the least of its cap, each NIC's
//     capacity over its users in the region, and each uplink's capacity
//     over shared_users_. When every flow's cap-and-NIC bound is finite
//     and the bounds sum past fabric * (1 + 1e-6) + kEpsRate * (n + 1),
//     the walk is bound to find the fabric violated, so the epoch skips
//     the per-component water-fills and the walk and escalates at once.
//     The margin covers, per flow, a water-fill that freezes up to
//     kEpsRate short of its bottleneck and, overall, the FP error of the
//     bounds, the fill and the walk's sum plus the walk's own kEpsRate
//     slack. A flow whose cap and NICs are all unlimited voids the proof:
//     its water-fill may stop below its uplink's share. Debug builds run
//     the skipped fills and walk and assert that they escalate.
//  4. If a shared constraint IS violated, the epoch escalates: one global
//     water-fill over all live flows with every constraint (exactly the
//     pre-incremental algorithm, in canonical slot order), and all flows
//     merge into a single component so any later change re-solves it (and
//     re-attempts decomposition, which is how the mega-component splits
//     back once pressure drops). When the dirty region already held every
//     live flow, its slot-ordered collection is reused as is (no second
//     live scan or detach pass). The escalated rates are published with
//     one bulk completion-heap re-key (see the engine notes above).
//
// Cached rates are reusable because a component's solution is a pure
// function of (member flows in slot order, their caps, endpoint capacities,
// contained shared capacities) — none of which change while the component
// stays clean. This is what makes the full-solve regime
// (FlowNetworkConfig::incremental = false: re-solve every component each
// epoch) byte-identical to the incremental mode, which the randomized
// equivalence suite asserts. The sweep driver (bench/paper_figures) maps
// its --full-solve option onto that field.
//
// Introspection: solved_component_count() counts component water-fills,
// touched_flow_count() counts flow re-solves (both cumulative), so benches
// can report flows-re-solved-per-epoch; escalation_count() says how often
// the shared-constraint check forced a global solve, and
// validation_walk_count() / certified_epoch_count() /
// proven_escalation_count() split the solving epochs by whether step 3
// walked the live flows, certified them, or proved the fabric violated.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/bitmap.h"

namespace hm::net {

using NodeId = std::uint32_t;

/// Category tags for traffic accounting; the evaluation section of the paper
/// reports network traffic broken down by what caused it.
enum class TrafficClass : std::uint8_t {
  kMemory,        // hypervisor memory pre-copy stream
  kStoragePush,   // source->destination chunk pushes (active phase)
  kStoragePull,   // destination<-source chunk pulls (passive phase)
  kRepoRead,      // base image chunks fetched from the repository
  kPvfsData,      // parallel file system I/O (pvfs-shared baseline)
  kAppComm,       // application communication (CM1 halo exchanges)
  kControl,       // small control messages (chunk lists, pull requests)
  kCount
};

constexpr std::size_t kNumTrafficClasses = static_cast<std::size_t>(TrafficClass::kCount);
const char* traffic_class_name(TrafficClass cls) noexcept;

constexpr double kUnlimitedRate = std::numeric_limits<double>::infinity();

/// Same-node transfers: memory-copy speed, not counted as traffic.
constexpr double kLoopbackBps = 8.0e9;

struct FlowNetworkConfig {
  double fabric_Bps = 8.0e9;     // aggregate switch capacity
  double latency_s = 100e-6;     // one-way message latency (paper: ~0.1 ms)
  /// Incremental component-scoped solving; false re-solves every
  /// component each epoch. Rates are byte-identical either way; only the
  /// solver-work counters differ.
  bool incremental = true;
};

using SwitchGroupId = std::uint32_t;

class FlowNetwork {
 public:
  FlowNetwork(sim::Simulator& sim, FlowNetworkConfig cfg = {});
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Register an edge switch with the given uplink capacity to the core
  /// (both directions). Models cluster oversubscription: flows between
  /// nodes on different switches consume uplink bandwidth; flows within a
  /// switch do not. Group 0 always exists with an unlimited uplink.
  SwitchGroupId add_switch_group(double uplink_Bps);
  std::size_t switch_group_count() const noexcept { return groups_.size(); }

  /// Register a node with the given NIC capacities (bytes/second).
  NodeId add_node(double egress_Bps, double ingress_Bps, SwitchGroupId group = 0);
  NodeId add_node(double nic_Bps) { return add_node(nic_Bps, nic_Bps, 0); }
  NodeId add_node(double nic_Bps, SwitchGroupId group) {
    return add_node(nic_Bps, nic_Bps, group);
  }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  SwitchGroupId group_of(NodeId n) const noexcept { return nodes_[n].group; }

  /// Continuation record for the frameless transfer awaitables. It lives
  /// inside the awaiter object (and therefore inside the awaiting
  /// coroutine's frame) for the whole suspension, so the network can hold a
  /// raw pointer to it: `step` is invoked (through one zero-delay event)
  /// when the current leg completes. The src/dst/bytes/cls/cap fields
  /// describe the leg to start next and are consumed by begin_flow().
  struct FlowOp {
    void (*step)(FlowOp*) = nullptr;
    void* self = nullptr;  // enclosing awaiter, for multi-leg ops
    FlowNetwork* net = nullptr;
    std::coroutine_handle<> cont = nullptr;
    NodeId src = 0;
    NodeId dst = 0;
    double bytes = 0.0;
    double cap = kUnlimitedRate;
    TrafficClass cls = TrafficClass::kControl;
    // Set when an endpoint crashed: the leg is torn down, its un-transferred
    // bytes are credited back to the traffic counters, and the continuation
    // is stepped exactly once through the normal completion event — so the
    // awaiting coroutine unwinds along the ordinary resume path and can
    // observe the failure from await_resume().
    bool failed = false;
  };

  /// Frameless single-transfer awaitable (see FlowOp). Non-copyable: the
  /// network registers the embedded FlowOp's address, so the object must be
  /// awaited where it was materialized (guaranteed elision makes
  /// `co_await net.transfer(...)` exactly that).
  class [[nodiscard]] TransferAwaiter {
   public:
    TransferAwaiter(const TransferAwaiter&) = delete;
    TransferAwaiter& operator=(const TransferAwaiter&) = delete;

    bool await_ready() const noexcept { return op_.bytes <= 0.0; }
    void await_suspend(std::coroutine_handle<> h) {
      op_.cont = h;
      op_.net->start_leg(&op_);
    }
    /// True if the transfer completed; false if an endpoint crashed
    /// mid-flight (the flow was torn down and un-sent bytes uncounted).
    bool await_resume() const noexcept { return !op_.failed; }

   private:
    friend class FlowNetwork;
    TransferAwaiter(FlowNetwork& net, NodeId src, NodeId dst, double bytes,
                    TrafficClass cls, double cap) noexcept {
      op_.step = &finish;
      op_.net = &net;
      op_.src = src;
      op_.dst = dst;
      op_.bytes = bytes;
      op_.cap = cap;
      op_.cls = cls;
    }
    static void finish(FlowOp* op) { op->cont.resume(); }
    FlowOp op_;
  };

  /// Frameless round-trip awaitable: the request leg completes, the
  /// response leg starts, and only then is the caller resumed. Non-copyable
  /// for the same reason as TransferAwaiter (op_.self refers back to this).
  class [[nodiscard]] RequestResponseAwaiter {
   public:
    RequestResponseAwaiter(const RequestResponseAwaiter&) = delete;
    RequestResponseAwaiter& operator=(const RequestResponseAwaiter&) = delete;

    bool await_ready() const noexcept {
      return op_.bytes <= 0.0 && response_bytes_ <= 0.0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      op_.cont = h;
      if (op_.bytes > 0.0) {
        op_.net->start_leg(&op_);
        return;
      }
      begin_response();  // empty request: straight to the payload leg
    }
    /// True if both legs completed; false if either leg failed.
    bool await_resume() const noexcept { return !op_.failed; }

   private:
    friend class FlowNetwork;
    RequestResponseAwaiter(FlowNetwork& net, NodeId requester, NodeId responder,
                           double request_bytes, double response_bytes,
                           TrafficClass response_cls) noexcept
        : response_bytes_(response_bytes), response_cls_(response_cls) {
      op_.step = &on_step;
      op_.self = this;
      op_.net = &net;
      op_.src = requester;
      op_.dst = responder;
      op_.bytes = request_bytes;
      op_.cls = TrafficClass::kControl;
    }
    static void on_step(FlowOp* op) {
      auto* self = static_cast<RequestResponseAwaiter*>(op->self);
      if (!op->failed && !self->response_started_) {
        self->begin_response();
        return;
      }
      op->cont.resume();  // done — or a leg failed: skip straight out
    }
    void begin_response() {
      response_started_ = true;
      const NodeId requester = op_.src;
      op_.src = op_.dst;
      op_.dst = requester;
      op_.bytes = response_bytes_;
      op_.cap = kUnlimitedRate;
      op_.cls = response_cls_;
      if (op_.bytes > 0.0) {
        op_.net->start_leg(&op_);
        return;
      }
      // Empty response after a real request: this runs from the request
      // leg's completion event, so resuming inline matches the old
      // synchronous no-op transfer.
      op_.cont.resume();
    }
    FlowOp op_;
    double response_bytes_;
    TrafficClass response_cls_;
    bool response_started_ = false;
  };

  /// Move `bytes` from src to dst; completes after one-way latency plus the
  /// time the (time-varying) fair-share rate needs to drain the flow.
  /// `rate_cap` bounds this flow's rate (e.g. a migration speed limit).
  TransferAwaiter transfer(NodeId src, NodeId dst, double bytes, TrafficClass cls,
                           double rate_cap = kUnlimitedRate) noexcept {
    return TransferAwaiter{*this, src, dst, bytes, cls, rate_cap};
  }

  /// Round trip: a small control request in one direction followed by a
  /// payload in the opposite direction. Used for pull-style chunk fetches.
  RequestResponseAwaiter request_response(NodeId requester, NodeId responder,
                                          double request_bytes, double response_bytes,
                                          TrafficClass response_cls) noexcept {
    return RequestResponseAwaiter{*this, requester, responder, request_bytes,
                                  response_bytes, response_cls};
  }

  // --- fault injection -----------------------------------------------------
  // Faults are ordinary state changes applied at the current virtual time;
  // they dirty the affected components through the same mechanism as flow
  // arrivals, so the incremental solver re-settles deterministically and
  // stays byte-identical to the full re-solve.

  /// Mark a node down (crash) or back up (reboot). Going down fails every
  /// live flow touching the node (their FlowOps are stepped with
  /// failed=true, un-sent bytes are uncounted) and rejects new flows until
  /// the node returns; going up wakes wait_node_up() waiters.
  void set_node_up(NodeId n, bool up);
  bool node_up(NodeId n) const noexcept { return nodes_[n].up; }
  /// Incarnation counter: bumped every time the node goes down. Lets a
  /// retry decide whether state staged on the node survived (same epoch)
  /// or was lost in a crash (epoch advanced).
  std::uint64_t node_epoch(NodeId n) const noexcept { return nodes_[n].epoch; }

  /// Suspend until the node is up (immediate when it already is). Intrusive
  /// waiter — no allocation.
  class [[nodiscard]] NodeUpAwaiter {
   public:
    bool await_ready() const noexcept { return net_->node_up(n_); }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      node_.bind(h);
      net_->up_waiters_[n_].push(&node_);
    }
    void await_resume() const noexcept {}

   private:
    friend class FlowNetwork;
    NodeUpAwaiter(FlowNetwork& net, NodeId n) noexcept : net_(&net), n_(n) {}
    FlowNetwork* net_;
    NodeId n_;
    sim::WaitNode node_;
  };
  NodeUpAwaiter wait_node_up(NodeId n) {
    if (up_waiters_.size() < nodes_.size()) up_waiters_.resize(nodes_.size());
    return NodeUpAwaiter{*this, n};
  }

  /// Multiplicatively scale a node's NIC capacities (degraded-rate window /
  /// slow receiver). Restore by applying the reciprocal. Dirties the
  /// components owning the node's NIC constraints so the next settle
  /// re-solves them.
  void scale_node_capacity(NodeId n, double egress_mult, double ingress_mult);
  /// Current NIC capacity multipliers (1 outside degrade/slow-receiver windows).
  double egress_scale(NodeId n) const noexcept { return nodes_[n].egress_scale; }
  double ingress_scale(NodeId n) const noexcept { return nodes_[n].ingress_scale; }
  /// Link flap: while any hold is active the node's NIC capacities read as
  /// zero (flows through it stall at rate 0 but stay queued). Hold-counted
  /// so overlapping flap windows nest.
  void set_link_flapped(NodeId n, bool flapped);
  bool link_flapped(NodeId n) const noexcept { return nodes_[n].flap_holds > 0; }

  // --- accounting ---------------------------------------------------------
  double traffic_bytes(TrafficClass cls) const noexcept {
    return traffic_[static_cast<std::size_t>(cls)];
  }
  double total_traffic_bytes() const noexcept;
  /// Zero all traffic counters (used to discount warm-up phases).
  void reset_traffic() noexcept;

  // --- introspection (tests, benches) -------------------------------------
  std::size_t active_flows() const noexcept { return live_flows_; }
  /// Sum of all live flow rates, accumulated in slot order (O(live flows)).
  double current_rate_sum() const noexcept;
  /// Sum of the rates of the live src->dst flows (walks src's out-list).
  double flow_rate(NodeId src, NodeId dst) const noexcept;
  /// Max-min solve epochs so far; lets tests assert that a burst of
  /// same-timestamp arrivals settles with exactly one recompute.
  std::uint64_t recompute_count() const noexcept { return recompute_count_; }
  /// True while an epoch-settle event is queued (arrivals not yet solved).
  bool settle_pending() const noexcept { return settle_pending_; }
  /// Flows ever started (engine-throughput metric for the scale sweeps).
  std::uint64_t flows_started() const noexcept { return flows_started_; }
  /// Cumulative component water-fills (escalated global solves count as 1).
  std::uint64_t solved_component_count() const noexcept { return solved_components_; }
  /// Cumulative flow re-solves; touched/recompute_count() is the average
  /// flows-re-solved-per-epoch the incremental solver is judged on.
  std::uint64_t touched_flow_count() const noexcept { return touched_flows_; }
  /// Epochs where a violated shared constraint forced a global solve.
  std::uint64_t escalation_count() const noexcept { return escalations_; }
  /// Solving epochs whose shared-constraint check walked every live flow
  /// (the capacity certificate failed; see invariant step 3).
  std::uint64_t validation_walk_count() const noexcept { return validation_walks_; }
  /// Solving epochs the capacity certificate settled without the walk.
  std::uint64_t certified_epoch_count() const noexcept { return certified_epochs_; }
  /// Escalations the violation certificate proved without solving the
  /// components or walking the usage (see invariant step 3).
  std::uint64_t proven_escalation_count() const noexcept { return proven_escalations_; }
  /// Live connected components right now (0 when idle).
  std::size_t component_count() const noexcept { return live_components_; }

 private:
  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  /// A flow's fixed description. Its bytes remaining and current rate live
  /// in the dense remaining_/rate_ arrays beside the slab (see flow_slots_).
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    double cap = kUnlimitedRate;
  };
  /// Links of one intrusive doubly-linked list of flow slots.
  struct Link {
    std::uint32_t prev = kNilIndex;
    std::uint32_t next = kNilIndex;
  };
  struct FlowSlot {
    Flow flow;
    // Continuation of the awaiting transfer op; stepped (via one zero-delay
    // event) when the flow completes. Replaces the per-transfer done Event.
    FlowOp* op = nullptr;
    // Position of the flow's completion-heap entry; kNil while its
    // projection is infinite (stalled, or not yet solved).
    std::uint32_t heap_pos = kNilIndex;
    std::uint32_t next_free = kNilIndex;
    bool in_use = false;
    // Position in items_ for the current solve pass (valid while solve_gen
    // matches solve_pass_gen_): lets the shared-constraint usage pass look
    // up a freshly solved rate without an O(slab) slot->item map rebuild.
    std::uint32_t item_idx = 0;
    std::uint64_t solve_gen = 0;
    // Constraint incidence, computed at arrival (rebuilt on topology
    // change): [egress(src), ingress(dst), fabric, uplink-up, uplink-down].
    std::uint32_t constraints[5] = {};
    std::uint8_t n_constraints = 0;
    std::uint32_t comp = kNilIndex;  // owning component; kNil until solved
    Link comp_link;  // owning component's member list (valid while comp set)
    Link out_link;   // src node's outgoing-flow list (while in use)
    Link in_link;    // dst node's incoming-flow list (while in use)
    // Cached dense indices into the escalation arena (valid while
    // arena_bound_gen matches arena_gen_; see "persistent compact arena").
    std::uint32_t acidx[5] = {};
    std::uint64_t arena_bound_gen = 0;
  };
  struct Node {
    double egress_Bps;
    double ingress_Bps;
    SwitchGroupId group;
    // Fault state (see "fault injection" above).
    double egress_scale = 1.0;
    double ingress_scale = 1.0;
    std::uint32_t flap_holds = 0;
    bool up = true;
    std::uint64_t epoch = 0;  // bumped on every crash
    // Heads of the node's incidence lists (FlowSlot::out_link/in_link), so
    // a crash finds its flows without scanning every live flow.
    std::uint32_t out_head = kNilIndex;
    std::uint32_t in_head = kNilIndex;
  };
  struct Group {
    double uplink_Bps;
  };
  /// Component of the flows<->constraints incidence graph. Flows point at
  /// their component, and the component threads its members through
  /// FlowSlot::comp_link in slot order (linked at publish, unlinked on
  /// departure) so a dirty component's members are found without a live
  /// scan. `gen` survives slot reuse so stale NIC-owner entries can be
  /// detected instead of dirtying an innocent component that recycled the id.
  struct Component {
    std::uint32_t count = 0;     // live member flows
    std::uint32_t head = kNilIndex;  // first member slot (comp_link list)
    std::uint32_t next_free = kNilIndex;
    std::uint32_t gen = 0;
    bool dirty = false;
    bool in_use = false;
  };
  /// A flow's projected completion (absolute time). Entries order by
  /// (t, slot), so simultaneous completions pop in ascending slot order.
  struct CompEntry {
    double t;
    std::uint32_t slot;
  };
  static bool comp_before(const CompEntry& a, const CompEntry& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.slot < b.slot;
  }

  std::uint32_t alloc_flow_slot();
  void release_flow_slot(std::uint32_t slot);
  void apply_rate(std::uint32_t slot, double new_rate);
  /// The flow's projected completion time under its current rate; infinite
  /// when the rate is too small to finish.
  double projection(std::uint32_t slot) const noexcept;
  /// Re-project the flow's completion from its current remaining bytes and
  /// rate: insert or re-key its heap entry, or erase it when the rate is
  /// too small to finish.
  void push_projection(std::uint32_t slot);
  /// Publish every item's rate with one bulk completion-heap re-key.
  void apply_rates_bulk();
  // Indexed completion heap (binary, comp_before order, positions kept in
  // FlowSlot::heap_pos).
  void comp_heap_erase(std::uint32_t slot);
  void comp_heap_place(std::uint32_t pos, CompEntry e);
  /// Schedule the epoch-settle event if one is not already pending.
  void mark_dirty();
  void on_settle();

  /// Start one transfer leg for a frameless awaitable: loopback legs cost a
  /// timer only; network legs schedule begin_flow after the one-way latency.
  void start_leg(FlowOp* op);
  /// Register the op's flow with the solver (runs at flow-start time, after
  /// the latency delay): accounting, slot setup, epoch dirtying.
  void begin_flow(FlowOp* op);

  std::size_t constraint_space() const noexcept {
    return 2 * nodes_.size() + 1 + 2 * groups_.size();
  }
  void compute_incidence(FlowSlot& fs) noexcept;
  double constraint_cap(std::uint32_t c) const noexcept;
  /// Shared-constraint user counts, keeping over_limit_ current.
  void add_shared_user(std::uint32_t c) noexcept {
    if (shared_users_[c]++ == user_limit_[c]) ++over_limit_;
  }
  void drop_shared_user(std::uint32_t c) noexcept {
    if (--shared_users_[c] == user_limit_[c]) --over_limit_;
  }
  /// Re-derive every shared constraint's certified user limit from
  /// max_nic_ and recount over_limit_ (topology change, max_nic_ change).
  void refresh_certificate();
  /// The usage walk: true when some finite shared constraint carries more
  /// than its capacity (+ kEpsRate) under the cached + freshly solved rates.
  bool shared_capacity_exceeded();
  /// The violation certificate: true when items_ holds every live flow in
  /// two or more groups and their bottleneck bounds overrun the fabric.
  bool fabric_overrun_proven();
  std::uint32_t alloc_component();
  void release_component(std::uint32_t id) noexcept;
  /// Flag a component for re-solve, queueing it on the dirty list once.
  void dirty_component(std::uint32_t id);
  void detach_from_component(std::uint32_t slot);
  /// Intrusive slot lists threaded through one Link member of FlowSlot.
  void link_front(std::uint32_t& head, std::uint32_t slot, Link FlowSlot::*l) noexcept;
  void unlink(std::uint32_t& head, std::uint32_t slot, Link FlowSlot::*l) noexcept;

  /// Tear down every live flow with an endpoint at `n` (crash): credit back
  /// un-transferred bytes, step the ops with failed=true, release the slots
  /// and re-settle.
  void fail_flows_at(NodeId n);
  /// Dirty the components owning node n's NIC constraints (capacity change).
  void dirty_node_components(NodeId n);

  void advance_to_now();
  void solve_epoch();
  void count_users(std::size_t first_item, std::size_t n_items, std::uint8_t k_from,
                   std::uint8_t k_to);
  void water_fill(std::size_t first_item, std::size_t n_items);
  void water_fill_escalated();
  void run_fill(std::size_t first_item, std::size_t n_items);
  void reset_arena();
  void schedule_completion();
  void on_completion_timer();

  sim::Simulator& sim_;
  FlowNetworkConfig cfg_;
  std::vector<Node> nodes_;
  std::vector<Group> groups_;
  // Per-node reboot waiters (grown lazily by wait_node_up/set_node_up).
  std::vector<sim::WaiterList> up_waiters_;

  // Slab of flow slots. A flat vector: slots hold no non-movable members
  // anymore (the done Event became the op pointer) and no reference into the
  // slab is held across an alloc_flow_slot() call. Live slots are tracked in
  // a packed bitmap so the live passes (the collect scan only on its
  // fallback paths; the shared-usage walk only in epochs the capacity
  // certificate cannot settle; escalation) walk live flows in canonical
  // slot order while word-skipping dead regions, instead of touching every
  // slab slot.
  // The byte advance of every instant is the one pass that reads all live
  // flows, and it reads only bytes remaining and rate. Those two live in
  // dense arrays parallel to the slab (grown with it), so the advance
  // streams 16 B per slot instead of striding over 128 B slots. It runs
  // over the whole slab without a liveness test: release_flow_slot zeroes
  // the rate, and rem - 0 * dt leaves a dead slot's value unchanged.
  std::vector<FlowSlot> flow_slots_;
  std::vector<double> remaining_;  // bytes still to send, per slot
  std::vector<double> rate_;       // current rate, per slot; 0 while dead
  util::DirtyBitmap live_bits_{0};
  std::uint32_t free_head_ = kNilIndex;
  std::size_t live_flows_ = 0;

  // Component slab (free-listed; see struct Component).
  std::vector<Component> comps_;
  std::uint32_t comp_free_ = kNilIndex;
  std::size_t live_components_ = 0;
  // NIC constraint -> (component, generation) that last owned it; arrivals
  // use it to dirty the components they may merge with. Entries whose
  // generation no longer matches are stale (owner dissolved) and ignored.
  std::vector<std::uint32_t> nic_owner_;
  std::vector<std::uint32_t> nic_owner_gen_;
  // Shared-constraint live user counts (containment test); indexed by
  // constraint id, only entries >= 2*nodes are maintained.
  std::vector<std::uint32_t> shared_users_;
  // Capacity certificate (invariant step 3): per shared constraint the most
  // users its capacity certifies (kNoLimit when uncapped), the largest NIC
  // capacity, and how many shared constraints have more users than their
  // limit. A topology change shifts constraint ids, so limits and count are
  // stale until the next solve recounts shared_users_ and refreshes them.
  static constexpr std::uint32_t kNoLimit = 0xffffffffu;
  std::vector<std::uint32_t> user_limit_;
  double max_nic_ = 0.0;
  std::uint32_t over_limit_ = 0;
  std::uint64_t topology_gen_ = 0;   // bumped by add_node/add_switch_group
  std::uint64_t solved_topology_gen_ = 0;
  // Settle worklists (see "Incremental solver invariants" step 1): consumed
  // and cleared by every solve_epoch.
  std::vector<std::uint32_t> dirty_comps_;  // components whose flag flipped
  std::vector<std::uint32_t> arrivals_;     // slots begun since the last solve
  std::vector<std::uint32_t> worklist_;     // collect scratch

  double last_advance_ = 0.0;
  bool settle_pending_ = false;
  sim::Simulator::Timer settle_timer_;

  std::vector<CompEntry> comp_heap_;
  sim::Simulator::Timer completion_timer_;
  double completion_timer_t_ = 0.0;  // deadline while completion_timer_ is active

  std::uint64_t recompute_count_ = 0;
  std::uint64_t flows_started_ = 0;
  std::uint64_t solved_components_ = 0;
  std::uint64_t touched_flows_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t validation_walks_ = 0;
  std::uint64_t certified_epochs_ = 0;
  std::uint64_t proven_escalations_ = 0;
  double traffic_[kNumTrafficClasses] = {};

  // scratch buffers for the solver (avoid per-epoch allocations)
  struct SolverItem {
    Flow* f;
    std::uint32_t slot;
    double alloc;
    bool frozen;
    std::uint32_t uf_parent;   // union-find over affected items
    std::uint32_t cidx[5];     // compact constraint indices for one water-fill
    std::uint8_t n_cidx;
  };
  std::vector<SolverItem> items_;             // affected flows, slot order
  std::vector<SolverItem> items_scratch_;     // group-order permutation buffer
  std::vector<std::uint32_t> group_of_item_;  // dense component id per item
  std::vector<std::uint32_t> group_start_;    // group -> first index (+ total)
  std::vector<std::uint32_t> item_order_;     // counting-sort permutation
  std::vector<std::uint32_t> scatter_pos_;
  std::uint64_t solve_pass_gen_ = 0;       // validates FlowSlot::item_idx
  std::vector<double> usage_;              // per shared constraint: total rate
  std::vector<double> wf_cap_;             // water-fill: remaining capacity
  std::vector<std::uint32_t> wf_users_;    //   and unfrozen users, per constraint
  // Epoch-stamped constraint-id maps (never cleared, O(1) reuse). cmap_
  // holds per-component shared-user counts during a water-fill and NIC
  // user counts during the violation certificate; citem_
  // doubles as union-find seed and compaction index.
  std::vector<std::uint32_t> cmap_;
  std::vector<std::uint64_t> cmap_epoch_;
  std::uint64_t cmap_gen_ = 0;
  std::vector<std::uint32_t> citem_;
  std::vector<std::uint64_t> citem_epoch_;
  std::uint64_t citem_gen_used_ = 0;
  std::vector<std::uint32_t> finished_scratch_;

  // Persistent compact arena for the escalated global solve: dense
  // constraint indices assigned on first use and kept alive across epochs
  // (reset only on topology change), so the saturated lockstep regime does
  // not rebuild the compaction each escalation. Flow slots cache their
  // dense indices (acidx) under arena_gen_; per escalation only capacities
  // are reseeded and per-item user counts recounted.
  std::vector<std::uint32_t> arena_idx_;          // constraint -> dense index
  std::vector<std::uint32_t> arena_constraints_;  // dense index -> constraint
  std::uint64_t arena_gen_ = 1;                   // 0 marks unbound slots
};

}  // namespace hm::net
