// Discrete-event simulation core: virtual clock, timer wheel and coroutine
// scheduling. All substrates (network, disks, hypervisor, workloads) run as
// coroutines driven by one Simulator instance, giving fully deterministic
// experiments.
//
// The event core is allocation-free in steady state and the pending set is
// THREE lanes, popped by the globally smallest (time, seq) key so the event
// order is a pure function of the schedule calls, never of the lane:
//  * fast lane  — an O(1) FIFO ring of seq-stamped raw continuations
//    (function pointer + two opaque words) for zero-delay work: coroutine
//    wakeups, yields, flow-completion steps, FIFO-station handoffs. No slot
//    allocation, no callable construction, no heap.
//  * tail lane  — a monotone sorted-run FIFO for the dominant
//    in-timestamp-order timer schedules (O(1) push).
//  * heap lane  — an index-based 4-ary min-heap with inline (t, seq) keys
//    for out-of-order timer pushes.
// Timer entries live in a slab pool recycled through a free list and hold a
// SmallFn (two-word inline callable, compile-time capture check — see
// small_fn.h) instead of a std::function, so no scheduled event ever
// heap-allocates. Timer handles validate against per-slot generation
// counters (slab lanes) or against the fast lane's monotone pop count, so
// handles outliving their entry are safely inert.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/small_fn.h"
#include "sim/task.h"

namespace hm::sim {

class Simulator {
 public:
  Simulator() = default;
  ~Simulator() { destroy_detached(); }

  /// Destroy every detached task still suspended (background daemons, or a
  /// max_sim_time truncation leaving coroutines parked on awaitables):
  /// frame-local destructors run, so frame-owned resources are reclaimed
  /// instead of leaking with the frame slab. The destructor calls this as a
  /// backstop, but a harness whose frames reference objects that die before
  /// the simulator (declaration order) must call it explicitly first, while
  /// those objects are alive. Must not be called while the run loop is
  /// executing.
  void destroy_detached() noexcept;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  double now() const noexcept { return now_; }

  /// Handle to a scheduled callback; cancellation is race-free because the
  /// simulation is single-threaded. A Timer is validated by a generation
  /// counter (slab entries) or the fast lane's monotone pop count, so
  /// handles outliving their entry (fired or cancelled) are safely inert.
  /// Handles must not outlive the Simulator itself.
  class Timer {
   public:
    Timer() = default;
    void cancel() noexcept {
      if (sim_) sim_->cancel_entry(slot_, gen_);
    }
    bool active() const noexcept { return sim_ && sim_->entry_active(slot_, gen_); }

   private:
    friend class Simulator;
    Timer(Simulator* sim, std::uint32_t slot, std::uint64_t gen) noexcept
        : sim_(sim), slot_(slot), gen_(gen) {}
    Simulator* sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint64_t gen_ = 0;
  };

  /// Schedule `fn` to run `delay` seconds from now (delay clamped to >= 0;
  /// NaN counts as zero). One clamp only — schedule_at owns it.
  Timer schedule(double delay, SmallFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at absolute virtual time `t` (clamped to >= now). Used
  /// where the caller already holds an absolute deadline (e.g. the flow
  /// network's completion heap) and re-deriving a delay would round twice.
  Timer schedule_at(double t, SmallFn fn);

  // --- fast lane ------------------------------------------------------------
  // Zero-delay continuations: `fn(a, b)` runs at the CURRENT virtual time,
  // in global (t, seq) order with everything else — i.e. after every event
  // already queued at this instant. O(1) push into a FIFO ring; no slot, no
  // callable object, no heap. This is the dominant event class (sync-
  // primitive wakeups, flow-completion steps, station handoffs, yields).

  using FastFn = void (*)(void* a, void* b);

  void post(FastFn fn, void* a, void* b = nullptr) {
    assert(fn != nullptr);  // a null fn marks a cancelled ring entry
    if (fast_count_ == fast_.size()) grow_fast();
    fast_[(fast_head_ + fast_count_) & (fast_.size() - 1)] =
        FastItem{fn, a, b, seq_++};
    ++fast_count_;
  }
  /// Resume a coroutine through the fast lane (the bounded-stack, FIFO
  /// replacement for resuming inline).
  void post(std::coroutine_handle<> h) { post(&resume_thunk, h.address()); }
  /// The canonical coroutine-resume FastFn (`a` is the handle address).
  /// Shared with continuation records built outside the Simulator (e.g.
  /// sync.h's WaitNode::bind), so every coroutine wakeup resumes the same
  /// way.
  static void resume_thunk(void* a, void*) {
    std::coroutine_handle<>::from_address(a).resume();
  }
  /// Fast-lane push that hands back a cancellable Timer. Slightly dearer
  /// than post() (index bookkeeping), so reserved for producers that may
  /// need to retract the event (e.g. the flow network's settle epoch).
  Timer post_cancellable(FastFn fn, void* a, void* b = nullptr) {
    const std::uint64_t idx = fast_popped_ + fast_count_;
    post(fn, a, b);
    return Timer{this, kFastSlot, idx};
  }

  /// Detach a coroutine as a background process; it starts at the current
  /// virtual time, once the currently running event returns to the loop.
  void spawn(Task t);

  /// Awaitable that suspends the current coroutine for `dt` seconds. A
  /// non-positive (or NaN) delay is a cooperative yield: the handle goes
  /// straight onto the fast lane — no clamp arithmetic, no callable, no
  /// timer slot.
  struct DelayAwaiter {
    Simulator& sim;
    double dt;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (!(dt > 0.0)) {
        sim.post(h);
        return;
      }
      sim.schedule(dt, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(double dt) noexcept { return DelayAwaiter{*this, dt}; }
  /// Reschedule the current coroutine at the same virtual time (cooperative
  /// yield behind already-queued events).
  DelayAwaiter yield() noexcept { return DelayAwaiter{*this, 0.0}; }

  /// Resume `h` at the current virtual time via the event queue. Using the
  /// queue (instead of resuming inline) bounds stack depth and preserves
  /// FIFO ordering between wakeups.
  void resume_later(std::coroutine_handle<> h) { post(h); }

  /// Execute the next pending event. Returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run all events with timestamp <= t, then advance the clock to t.
  void run_until(double t);

  /// Run until `pred()` becomes true (checked after each event) or the queue
  /// drains. Returns the predicate value.
  bool run_while_pending(const std::function<bool()>& done_pred);

  std::size_t pending_events() const noexcept {
    return heap_.size() + (tail_.size() - tail_head_) + fast_count_;
  }
  std::uint64_t events_processed() const noexcept { return processed_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Sentinel slot id marking a Timer that refers to a fast-lane entry (its
  /// gen field then carries the entry's global fast-lane index). Distinct
  /// from any slab slot: the slab is capped at 2^24 entries.
  static constexpr std::uint32_t kFastSlot = 0xfffffffeu;

  /// Pooled timer entry; the sort keys live in HeapItem, not here.
  struct Slot {
    SmallFn fn;
    std::uint64_t gen = 0;  // bumped on release; Timer handles compare it
    std::uint32_t next_free = kNilSlot;
    bool cancelled = false;
  };
  /// Heap element with inline keys: sift operations stay within one
  /// contiguous array, never dereferencing the pool. The 16-byte layout
  /// packs (seq, slot) into one word so four children span one cache line;
  /// comparing `key` directly yields FIFO order within a timestamp.
  static constexpr unsigned kSlotBits = 24;  // <= 16M concurrently pending
  struct HeapItem {
    double t;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(key & ((1u << kSlotBits) - 1));
    }
  };
  static bool before(const HeapItem& a, const HeapItem& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.key < b.key;
  }

  /// Fast-lane ring entry. Its timestamp is implicit: entries are pushed at
  /// the then-current virtual time, and because pops always take the global
  /// (t, seq) minimum, the ring drains before the clock can advance — so a
  /// pending fast entry's time is always exactly now(). fn == nullptr marks
  /// a cancelled entry (skipped on pop without counting as processed).
  struct FastItem {
    FastFn fn;
    void* a;
    void* b;
    std::uint64_t seq;
  };

  // Two timer lanes. DES schedules are overwhelmingly monotone (each event
  // schedules successors at now + delay, and now only moves forward), so a
  // push that is not earlier than the newest tail entry appends to a sorted
  // run in O(1); only out-of-order pushes pay the heap's O(log n).
  void push_item(HeapItem item) {
    if (tail_head_ == tail_.size()) {
      tail_.clear();
      tail_head_ = 0;
    }
    if (tail_.empty() || !before(item, tail_.back())) {
      tail_.push_back(item);
      return;
    }
    heap_push(item);
  }
  /// Head of the two timer lanes only (the fast lane is compared against
  /// this by the pop loop, which knows the ring's implicit timestamp).
  const HeapItem* peek_item() const noexcept {
    const bool have_tail = tail_head_ < tail_.size();
    if (heap_.empty()) return have_tail ? &tail_[tail_head_] : nullptr;
    if (!have_tail || before(heap_.front(), tail_[tail_head_])) return &heap_.front();
    return &tail_[tail_head_];
  }
  HeapItem pop_item();

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = pool_[slot];
    s.fn = nullptr;  // drop captured state promptly
    s.cancelled = false;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }
  void cancel_entry(std::uint32_t slot, std::uint64_t gen) noexcept {
    if (slot == kFastSlot) {
      FastItem* it = fast_entry(gen);
      if (it != nullptr) it->fn = nullptr;
      return;
    }
    if (slot < pool_.size() && pool_[slot].gen == gen) pool_[slot].cancelled = true;
  }
  bool entry_active(std::uint32_t slot, std::uint64_t gen) const noexcept {
    if (slot == kFastSlot) {
      const FastItem* it = const_cast<Simulator*>(this)->fast_entry(gen);
      return it != nullptr && it->fn != nullptr;
    }
    return slot < pool_.size() && pool_[slot].gen == gen && !pool_[slot].cancelled;
  }

  /// Ring entry for global fast-lane index `idx`, or null once popped.
  /// Indices never recycle (they count pushes since construction), so stale
  /// handles cannot alias a later entry.
  FastItem* fast_entry(std::uint64_t idx) noexcept {
    if (idx < fast_popped_ || idx >= fast_popped_ + fast_count_) return nullptr;
    return &fast_[(fast_head_ + (idx - fast_popped_)) & (fast_.size() - 1)];
  }
  FastItem fast_pop() noexcept {
    const FastItem item = fast_[fast_head_];
    fast_head_ = (fast_head_ + 1) & (fast_.size() - 1);
    --fast_count_;
    ++fast_popped_;
    return item;
  }
  void grow_fast();

  void heap_push(HeapItem item);
  HeapItem heap_pop();

  bool pop_and_run();

  std::vector<HeapItem> heap_;  // out-of-order lane: implicit 4-ary min-heap
  std::vector<HeapItem> tail_;  // monotone lane: sorted run consumed from tail_head_
  std::size_t tail_head_ = 0;
  std::vector<FastItem> fast_;  // fast lane: power-of-two ring buffer
  std::size_t fast_head_ = 0;
  std::size_t fast_count_ = 0;
  std::uint64_t fast_popped_ = 0;  // entries ever popped (handle validation)
  std::vector<Slot> pool_;
  std::uint32_t free_head_ = kNilSlot;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  Task::promise_type* detached_head_ = nullptr;  // live detached tasks
};

}  // namespace hm::sim
