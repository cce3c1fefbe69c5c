// Discrete-event simulation core: virtual clock, timer queue and coroutine
// scheduling. All substrates (network, disks, hypervisor, workloads) run as
// coroutines driven by one Simulator instance, giving fully deterministic
// experiments.
//
// The event core is allocation-free in steady state and the pending set is
// TWO lanes, popped by the globally smallest (time, seq) key so the event
// order is a pure function of the schedule calls, never of the lane:
//  * fast lane  — an O(1) FIFO ring of seq-stamped raw continuations
//    (function pointer + two opaque words) for zero-delay work: coroutine
//    wakeups, yields, flow-completion steps, FIFO-station handoffs. No slot
//    allocation, no callable construction, no heap.
//  * timer lane — a radix heap over the bit patterns of the deadlines.
//    Every timer is due at or after now(), and non-negative doubles order
//    the same way as their bits, so this is the monotone priority queue
//    radix heaps are built for (Ahuja, Mehlhorn, Orlin & Tarjan, JACM
//    1990): bucket b > 0 holds the keys whose highest bit differing from
//    the last extracted key is bit b-1, and bucket 0 the keys equal to it.
//    A push is O(1); a pop that finds bucket 0 empty redistributes the
//    lowest non-empty bucket around its minimum (tracked per bucket, so
//    that is one pass), and each key only ever moves to lower buckets. The
//    65 buckets are FIFO lists threaded through the timer slots, so equal
//    deadlines pop in seq order and the lane never allocates beyond the
//    slot pool.
// Both lanes carry the same raw continuation: a function pointer and two
// opaque words. A timer entry is one 56-byte slot in a pool recycled
// through a free list, holding that continuation next to its radix key,
// bucket link, seq and generation. schedule()/schedule_at() take a lambda
// whose capture is at most two words and trivially copyable (checked at
// compile time: bigger state goes behind a pointer), bit-copy it into the
// two words and run it through a per-type thunk, so no scheduled event
// ever heap-allocates and none has a destructor to run. Timer handles
// validate against per-slot generation counters (timer slots) or against
// the fast lane's monotone pop count, so handles outliving their entry are
// safely inert.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

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
  template <class F>
  Timer schedule(double delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute virtual time `t` (clamped to >= now; NaN
  /// counts as now). Used where the caller already holds an absolute
  /// deadline (e.g. the flow network's completion heap) and re-deriving a
  /// delay would round twice. `fn`'s capture rides in the timer slot's two
  /// words, so it must fit them and be trivially copyable.
  template <class F>
  Timer schedule_at(double t, F&& fn) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "a timer callback takes no arguments");
    static_assert(sizeof(Fn) <= 2 * sizeof(void*) && alignof(Fn) <= alignof(void*),
                  "timer capture exceeds two words: capture a pointer to a "
                  "context struct that outlives the event instead");
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "timer capture must be trivially copyable: it is bit-copied "
                  "into the timer slot and never destroyed");
    void* words[2] = {nullptr, nullptr};
    std::memcpy(words, std::addressof(fn), sizeof(Fn));
    return schedule_raw(t, &capture_thunk<Fn>, words[0], words[1]);
  }

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
    return lane_size_ + fast_count_;
  }
  std::uint64_t events_processed() const noexcept { return processed_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Sentinel slot id marking a Timer that refers to a fast-lane entry (its
  /// gen field then carries the entry's global fast-lane index). Distinct
  /// from any slab slot: alloc_slot keeps slot ids below it.
  static constexpr std::uint32_t kFastSlot = 0xfffffffeu;

  /// Pooled timer entry, everything a push, a pop and a bucket move touch:
  /// the raw continuation (fn == nullptr marks a cancelled entry), `key` =
  /// the deadline's bit pattern, and `next`, which links the radix bucket's
  /// FIFO while the slot is pending and the free list while it is free.
  struct Slot {
    std::uint64_t key = 0;
    FastFn fn = nullptr;
    void* a = nullptr;
    void* b = nullptr;
    std::uint64_t seq = 0;  // global schedule order (ties on the deadline)
    std::uint64_t gen = 0;  // bumped on release; Timer handles compare it
    std::uint32_t next = kNilSlot;
  };
  static_assert(sizeof(Slot) <= 64);

  /// Rebuilds a schedule_at capture from the two words it was copied into
  /// and calls it.
  template <class F>
  static void capture_thunk(void* a, void* b) {
    void* words[2] = {a, b};
    alignas(F) unsigned char bytes[sizeof(F)];
    std::memcpy(bytes, words, sizeof(F));
    (*std::launder(reinterpret_cast<F*>(bytes)))();
  }
  /// schedule_at's untyped half: clamp `t`, fill a pool slot, push it.
  Timer schedule_raw(double t, FastFn fn, void* a, void* b);

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

  // --- timer lane (radix heap; see the file comment) -----------------------
  // Invariants: every pending key is >= last_, and each pending slot sits in
  // bucket_of(its key). Whenever a callback runs or the fast lane is
  // compared against the lane, last_ is also the key of now() (or the lane
  // is empty), so the timers due exactly at now() are precisely bucket 0.
  // Only a pop re-bases the lane past now(): it either moves the clock
  // there or drops a cancelled entry with nothing else running in between,
  // and run_until never pops past its horizon. run_until re-bases onto the
  // horizon when it moves the clock there without a pop, and a push into an
  // empty lane re-bases onto now().
  static constexpr unsigned kBuckets = 65;
  struct Bucket {
    std::uint32_t head = kNilSlot;
    std::uint32_t tail = kNilSlot;
    std::uint64_t min_key = ~std::uint64_t{0};  // smallest key appended since emptied
  };
  static std::uint64_t key_of(double t) noexcept { return std::bit_cast<std::uint64_t>(t); }
  double deadline(std::uint32_t slot) const noexcept {
    return std::bit_cast<double>(pool_[slot].key);
  }
  unsigned bucket_of(std::uint64_t key) const noexcept {
    return static_cast<unsigned>(64 - std::countl_zero(key ^ last_));
  }
  void bucket_append(unsigned b, std::uint32_t slot, std::uint64_t key) noexcept {
    pool_[slot].next = kNilSlot;
    Bucket& bk = buckets_[b];
    if (key < bk.min_key) bk.min_key = key;
    if (bk.tail == kNilSlot) {
      bk.head = slot;
      if (b > 0) nonempty_ |= std::uint64_t{1} << (b - 1);
    } else {
      pool_[bk.tail].next = slot;
    }
    bk.tail = slot;
  }
  void lane_push(std::uint32_t slot, double t) noexcept {
    if (lane_size_ == 0) last_ = key_of(now_);  // rebase an empty lane
    ++lane_size_;
    const std::uint64_t key = key_of(t);
    pool_[slot].key = key;
    bucket_append(bucket_of(key), slot, key);
  }
  /// Re-base the lane on `base` (<= every pending key, and agreeing with
  /// last_ above bit b-1) by moving bucket b's entries, in list order, to
  /// their buckets relative to it.
  void rebucket(unsigned b, std::uint64_t base) noexcept;
  /// The lane's earliest entry, moved to the head of bucket 0 — unless the
  /// lane is empty or its earliest key exceeds `limit`, in which case
  /// nothing moves and the result is kNilSlot.
  std::uint32_t lane_front(std::uint64_t limit) noexcept;
  std::uint32_t lane_pop_front() noexcept {
    Bucket& b0 = buckets_[0];
    const std::uint32_t slot = b0.head;
    b0.head = pool_[slot].next;
    if (b0.head == kNilSlot) b0.tail = kNilSlot;
    --lane_size_;
    return slot;
  }
  /// Re-key the lane on now() after the clock moved without a pop.
  void rebase_lane() noexcept;

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot) noexcept {
    Slot& s = pool_[slot];
    ++s.gen;
    s.next = free_head_;
    free_head_ = slot;
  }
  void cancel_entry(std::uint32_t slot, std::uint64_t gen) noexcept {
    if (slot == kFastSlot) {
      FastItem* it = fast_entry(gen);
      if (it != nullptr) it->fn = nullptr;
      return;
    }
    if (slot < pool_.size() && pool_[slot].gen == gen) pool_[slot].fn = nullptr;
  }
  bool entry_active(std::uint32_t slot, std::uint64_t gen) const noexcept {
    if (slot == kFastSlot) {
      const FastItem* it = const_cast<Simulator*>(this)->fast_entry(gen);
      return it != nullptr && it->fn != nullptr;
    }
    return slot < pool_.size() && pool_[slot].gen == gen && pool_[slot].fn != nullptr;
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

  bool pop_and_run();

  Bucket buckets_[kBuckets];
  std::uint64_t nonempty_ = 0;  // bit b-1 set while bucket b (1..64) is non-empty
  std::uint64_t last_ = 0;      // key the buckets are relative to
  std::size_t lane_size_ = 0;   // pending timer entries, cancelled ones included
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
