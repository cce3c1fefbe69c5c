#include "sim/simulator.h"

#include <algorithm>

namespace hm::sim {

std::uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    return slot;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

Simulator::Timer Simulator::schedule_at(double t, SmallFn fn) {
  if (!(t > now_)) t = now_;  // clamps past deadlines and NaN to "now"
  const std::uint32_t slot = alloc_slot();
  assert(slot < (1u << kSlotBits));           // <= 16M concurrently pending
  Slot& s = pool_[slot];
  s.fn = std::move(fn);
  s.cancelled = false;
  assert(seq_ < (1ull << (64 - kSlotBits)));  // ~1.1e12 events per simulation
  push_item(HeapItem{t, (seq_++ << kSlotBits) | slot});
  return Timer{this, slot, s.gen};
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

// 4-ary sift with a moving hole: half the depth of a binary heap and the
// four children share a cache line, so ordering costs fewer misses.
void Simulator::heap_push(HeapItem item) {
  std::size_t i = heap_.size();
  heap_.push_back(item);  // reserve the space; overwritten below
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

Simulator::HeapItem Simulator::pop_item() {
  const bool have_tail = tail_head_ < tail_.size();
  if (!heap_.empty() && (!have_tail || before(heap_.front(), tail_[tail_head_])))
    return heap_pop();
  const HeapItem item = tail_[tail_head_++];
  if (tail_head_ == tail_.size()) {
    tail_.clear();
    tail_head_ = 0;
  } else if (tail_head_ >= 1024 && tail_head_ * 2 >= tail_.size()) {
    // Drop the consumed prefix so a long-lived run does not pin memory;
    // amortized O(1) because at least half the entries left between trims.
    tail_.erase(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(tail_head_));
    tail_head_ = 0;
  }
  return item;
}

Simulator::HeapItem Simulator::heap_pop() {
  const HeapItem top = heap_.front();
  const HeapItem last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      const std::size_t last_child = std::min(first_child + 4, n);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

bool Simulator::pop_and_run() {
  for (;;) {
    // Skip cancelled fast-lane heads (not counted as processed, mirroring
    // cancelled slab entries).
    while (fast_count_ > 0 && fast_[fast_head_].fn == nullptr) fast_pop();
    const HeapItem* top = peek_item();
    if (fast_count_ > 0) {
      // Every pending fast entry sits at exactly now() (see FastItem), so
      // it loses only to a timer entry at the same instant with a smaller
      // global seq.
      const FastItem& head = fast_[fast_head_];
      if (top == nullptr || top->t > now_ || (top->key >> kSlotBits) > head.seq) {
        const FastItem item = fast_pop();
        ++processed_;
        item.fn(item.a, item.b);
        return true;
      }
    }
    if (top == nullptr) return false;
    const HeapItem item = pop_item();
    Slot& s = pool_[item.slot()];
    if (s.cancelled) {
      release_slot(item.slot());
      continue;
    }
    assert(item.t >= now_);
    now_ = item.t;
    ++processed_;
    // Move the callback out and release the slot first, so the callback can
    // re-schedule (and the pool recycle the slot) while it runs.
    SmallFn fn = std::move(s.fn);
    release_slot(item.slot());
    fn();
    return true;
  }
}

bool Simulator::step() { return pop_and_run(); }

void Simulator::run() {
  while (pop_and_run()) {
  }
}

void Simulator::run_until(double t) {
  for (;;) {
    while (fast_count_ > 0 && fast_[fast_head_].fn == nullptr) fast_pop();
    if (fast_count_ > 0) {
      // Pending fast entries sit at now(); run them unless the boundary is
      // already behind the clock (matching the old t-vs-entry comparison).
      if (now_ > t) break;
      pop_and_run();
      continue;
    }
    const HeapItem* top = peek_item();
    if (top == nullptr) break;
    // Skip over cancelled entries without advancing time.
    if (pool_[top->slot()].cancelled) {
      release_slot(pop_item().slot());
      continue;
    }
    if (top->t > t) break;
    pop_and_run();
  }
  if (now_ < t) now_ = t;
}

bool Simulator::run_while_pending(const std::function<bool()>& done_pred) {
  while (!done_pred()) {
    if (!pop_and_run()) return done_pred();
  }
  return true;
}

}  // namespace hm::sim
