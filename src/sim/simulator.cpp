#include "sim/simulator.h"

namespace hm::sim {

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next;
    return slot;
  }
  assert(pool_.size() < kFastSlot);
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

Simulator::Timer Simulator::schedule_raw(double t, FastFn fn, void* a, void* b) {
  if (!(t > now_)) t = now_;  // clamps past deadlines and NaN to "now"
  const std::uint32_t slot = alloc_slot();
  Slot& s = pool_[slot];
  s.fn = fn;
  s.a = a;
  s.b = b;
  s.seq = seq_++;
  lane_push(slot, t);
  return Timer{this, slot, s.gen};
}

void Simulator::rebucket(unsigned b, std::uint64_t base) noexcept {
  std::uint32_t list = buckets_[b].head;
  buckets_[b] = Bucket{};
  nonempty_ &= ~(std::uint64_t{1} << (b - 1));
  last_ = base;
  while (list != kNilSlot) {
    const std::uint64_t key = pool_[list].key;
    const std::uint32_t next = pool_[list].next;
    bucket_append(bucket_of(key), list, key);
    list = next;
  }
}

std::uint32_t Simulator::lane_front(std::uint64_t limit) noexcept {
  if (buckets_[0].head != kNilSlot) return buckets_[0].head;
  if (nonempty_ == 0) return kNilSlot;
  const unsigned b = static_cast<unsigned>(std::countr_zero(nonempty_)) + 1;
  const std::uint64_t min_key = buckets_[b].min_key;
  if (min_key > limit) return kNilSlot;
  // Every other bucket keeps its index: the new base agrees with the old one
  // on every bit above b-1, so only bucket b's entries move (all downwards,
  // the minimum's run into bucket 0).
  rebucket(b, min_key);
  return buckets_[0].head;
}

void Simulator::rebase_lane() noexcept {
  const std::uint64_t base = key_of(now_);
  if (lane_size_ == 0 || base == last_) {
    last_ = base;
    return;
  }
  // Every pending key is >= now(), so the buckets below bucket_of(base) are
  // empty and only bucket_of(base)'s entries change bucket (the argument in
  // lane_front, with now() in place of the minimum).
  const unsigned b = bucket_of(base);
  assert(last_ < base && buckets_[0].head == kNilSlot &&
         (nonempty_ & ((std::uint64_t{1} << (b - 1)) - 1)) == 0);
  rebucket(b, base);
}

void Simulator::destroy_detached() noexcept {
  while (detached_head_) {
    Task::promise_type* p = detached_head_;
    p->det_unlink();
    Task::Handle::from_promise(*p).destroy();
  }
}

void Simulator::spawn(Task t) {
  Task::Handle h = t.release();
  if (!h) return;
  Task::promise_type& p = h.promise();
  p.detached = true;
  p.det_head = &detached_head_;
  p.det_next = detached_head_;
  if (detached_head_) detached_head_->det_prev = &p;
  detached_head_ = &p;
  post(std::coroutine_handle<>(h));
}

void Simulator::grow_fast() {
  const std::size_t cap = fast_.empty() ? 64 : fast_.size() * 2;
  std::vector<FastItem> next(cap);
  for (std::size_t i = 0; i < fast_count_; ++i)
    next[i] = fast_[(fast_head_ + i) & (fast_.size() - 1)];
  fast_.swap(next);
  fast_head_ = 0;
}

bool Simulator::pop_and_run() {
  for (;;) {
    // Skip cancelled fast-lane heads (not counted as processed, mirroring
    // cancelled timer entries).
    while (fast_count_ > 0 && fast_[fast_head_].fn == nullptr) fast_pop();
    if (fast_count_ > 0) {
      // Every pending fast entry sits at exactly now() (see FastItem), so
      // it loses only to a timer due at now() — those are exactly bucket 0
      // (see the lane invariants) — with a smaller global seq.
      const std::uint32_t due = buckets_[0].head;
      if (due == kNilSlot || pool_[due].seq > fast_[fast_head_].seq) {
        const FastItem item = fast_pop();
        ++processed_;
        item.fn(item.a, item.b);
        return true;
      }
    } else if (lane_front(~std::uint64_t{0}) == kNilSlot) {
      return false;
    }
    const std::uint32_t slot = lane_pop_front();
    const Slot& s = pool_[slot];
    const FastFn fn = s.fn;
    if (fn == nullptr) {  // cancelled
      release_slot(slot);
      continue;
    }
    assert(deadline(slot) >= now_);
    now_ = deadline(slot);
    ++processed_;
    // Copy the continuation out and release the slot first, so the callback
    // can re-schedule (and the pool recycle the slot) while it runs.
    void* const a = s.a;
    void* const b = s.b;
    release_slot(slot);
    fn(a, b);
    return true;
  }
}

bool Simulator::step() { return pop_and_run(); }

void Simulator::run() {
  while (pop_and_run()) {
  }
}

void Simulator::run_until(double t) {
  if (t != t) {  // a NaN horizon bounds nothing: every comparison with it fails
    run();
    return;
  }
  // A horizon behind the clock admits only the timers due at now(), which
  // are all later than it.
  const std::uint64_t limit = key_of(t > now_ ? t : now_);
  for (;;) {
    while (fast_count_ > 0 && fast_[fast_head_].fn == nullptr) fast_pop();
    if (fast_count_ > 0) {
      // Pending fast entries sit at now(); run them unless the boundary is
      // already behind the clock.
      if (now_ > t) break;
      pop_and_run();
      continue;
    }
    // The horizon check comes before any pop, cancelled entries included:
    // the lane must not redistribute around a key the clock will not reach.
    const std::uint32_t top = lane_front(limit);
    if (top == kNilSlot || deadline(top) > t) break;
    if (pool_[top].fn == nullptr) {  // cancelled
      release_slot(lane_pop_front());  // skip without advancing time
      continue;
    }
    pop_and_run();
  }
  if (now_ < t) {
    now_ = t;
    rebase_lane();
  }
}

bool Simulator::run_while_pending(const std::function<bool()>& done_pred) {
  while (!done_pred()) {
    if (!pop_and_run()) return done_pred();
  }
  return true;
}

}  // namespace hm::sim
