// Coroutine synchronization primitives for the simulator: repeatable
// notifications, gates (suspend/resume; a gate built closed that only ever
// opens is a one-shot event), wait-groups, barriers and a single-server
// FIFO service station. All wakeups are funneled through the simulator's
// event queue so resumption order is deterministic and stack depth stays
// bounded.
//
// Waiter storage is intrusive: each awaiter embeds a WaitNode that lives in
// the suspended coroutine's frame, so registering a waiter and waking it
// performs no heap allocation. Nodes stay linked until the wakeup drains the
// list (the coroutine cannot resume earlier — wakeups only enqueue on the
// simulator's fast lane). A WaitNode's continuation is a raw (fn, a, b)
// fast-lane record rather than a coroutine handle, so frameless awaiters
// (PageCache read/write, for example) can park state-machine steps in the
// same waiter lists as coroutines and wake through the identical event.
#pragma once

#include <coroutine>
#include <cstddef>

#include "sim/simulator.h"

namespace hm::sim {

/// Intrusive FIFO queue over nodes exposing a `Node* next` member. One
/// implementation serves every chain in this header (waiter lists, station
/// requests, mailbox receivers), so the queue discipline cannot diverge.
template <class Node>
class IntrusiveQueue {
 public:
  bool empty() const noexcept { return head_ == nullptr; }
  std::size_t size() const noexcept { return size_; }
  /// Oldest node (nullptr when empty); follow `next` to walk the queue.
  Node* front() const noexcept { return head_; }

  void push(Node* n) noexcept {
    n->next = nullptr;
    if (head_ == nullptr)
      head_ = n;
    else
      tail_->next = n;
    tail_ = n;
    ++size_;
  }

  Node* pop() noexcept {
    Node* n = head_;
    head_ = n->next;
    if (head_ == nullptr) tail_ = nullptr;
    --size_;
    return n;
  }

  /// Detach the whole chain (wake-all). Iterating the returned chain is safe
  /// while the woken coroutines are still suspended, which resume_later
  /// guarantees (it only schedules).
  Node* drain() noexcept {
    Node* n = head_;
    head_ = tail_ = nullptr;
    size_ = 0;
    return n;
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Intrusive FIFO waiter node; embedded in awaiter objects (and thus in the
/// waiting coroutine's frame). Carries a fast-lane continuation record:
/// bind() points it at a coroutine resume, frameless awaiters point it at a
/// state-machine step instead.
struct WaitNode {
  Simulator::FastFn fn = nullptr;
  void* a = nullptr;
  void* b = nullptr;
  WaitNode* next = nullptr;

  void bind(std::coroutine_handle<> h) noexcept {
    fn = &Simulator::resume_thunk;
    a = h.address();
  }
};

using WaiterList = IntrusiveQueue<WaitNode>;

/// Repeatable notification: every call to notify_all() wakes the waiters
/// registered at that moment (condition-variable style, always "spurious
/// safe" because callers re-check their predicate in a loop).
class Notification {
 public:
  explicit Notification(Simulator& sim) : sim_(&sim) {}
  Notification(const Notification&) = delete;
  Notification& operator=(const Notification&) = delete;

  void notify_all();

  struct Awaiter {
    Notification& n;
    WaitNode node;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      node.bind(h);
      n.waiters_.push(&node);
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait() noexcept { return Awaiter{*this, {}}; }

  /// Park a frameless awaiter's step continuation until the next
  /// notify_all() (same wake event a coroutine waiter would get).
  void add_waiter(WaitNode* n) noexcept { waiters_.push(n); }

 private:
  Simulator* sim_;
  WaiterList waiters_;
};

/// Open/closed gate. wait_open() passes immediately while open and blocks
/// while closed. Used for VM pause/resume, for suspending the
/// BACKGROUND_PULL task (Algorithm 4 of the paper) and, built closed and
/// only ever opened, as a one-shot completion event.
class Gate {
 public:
  explicit Gate(Simulator& sim, bool open = true) : sim_(&sim), open_(open) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const noexcept { return open_; }
  void open();
  void close() noexcept { open_ = false; }

  struct Awaiter {
    Gate& g;
    WaitNode node;
    bool await_ready() const noexcept { return g.open_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      node.bind(h);
      g.waiters_.push(&node);
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait_open() noexcept { return Awaiter{*this, {}}; }

 private:
  Simulator* sim_;
  bool open_;
  WaiterList waiters_;
};

/// Single-server FIFO service station: every fixed-service queue in the
/// model (disks, the host bus, the guest bus) is one. An idle submit
/// schedules one service timer; a queued request wakes through one
/// zero-delay handoff event before its timer, preserving strict FIFO, and
/// no request costs a coroutine frame. Nodes are embedded in the callers'
/// awaiters, so queueing never allocates.
class FifoStation {
 public:
  explicit FifoStation(Simulator& sim) : sim_(&sim) {}
  FifoStation(const FifoStation&) = delete;
  FifoStation& operator=(const FifoStation&) = delete;

  /// Intrusive request; lives in the submitting awaiter until resumed.
  struct Node {
    double service_s = 0.0;
    std::coroutine_handle<> cont = nullptr;
    Node* next = nullptr;
  };

  void submit(Node* n) {
    if (busy_) {
      queue_.push(n);
      return;
    }
    busy_ = true;
    start(n);
  }

  bool busy() const noexcept { return busy_; }
  /// Requests waiting behind the one in service.
  std::size_t queue_length() const noexcept { return queue_.size(); }

 private:
  void start(Node* n) {
    sim_->schedule(n->service_s, [this, n] { complete(n); });
  }
  static void handoff_thunk(void* station, void* node) {
    static_cast<FifoStation*>(station)->start(static_cast<Node*>(node));
  }
  void complete(Node* n) {
    if (!queue_.empty()) {
      // Hand the server to the oldest queued request through the fast lane
      // (one zero-delay event), then resume the finished caller
      // synchronously.
      sim_->post(&handoff_thunk, this, queue_.pop());
    } else {
      busy_ = false;
    }
    n->cont.resume();
  }

  Simulator* sim_;
  IntrusiveQueue<Node> queue_;
  bool busy_ = false;
};

/// Go-style wait group: add() before spawning parallel work, done() when a
/// unit finishes, wait() suspends until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) : sim_(&sim) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  void add(std::size_t n = 1) noexcept { count_ += n; }
  void done();

  struct Awaiter {
    WaitGroup& wg;
    WaitNode node;
    bool await_ready() const noexcept { return wg.count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      node.bind(h);
      wg.waiters_.push(&node);
    }
    void await_resume() const noexcept {}
  };
  Awaiter wait() noexcept { return Awaiter{*this, {}}; }

  std::size_t count() const noexcept { return count_; }

 private:
  Simulator* sim_;
  std::size_t count_ = 0;
  WaiterList waiters_;
};

/// Cyclic barrier for BSP-style workloads (the CM1 stencil ranks).
class Barrier {
 public:
  Barrier(Simulator& sim, std::size_t parties) : sim_(&sim), parties_(parties) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  struct Awaiter {
    Barrier& b;
    WaitNode node;
    bool await_ready() const noexcept { return b.parties_ <= 1; }
    bool await_suspend(std::coroutine_handle<> h) noexcept {
      node.bind(h);
      b.waiters_.push(&node);
      if (b.waiters_.size() >= b.parties_) {
        b.release_all();
        return false;  // last arriver proceeds immediately
      }
      return true;
    }
    void await_resume() const noexcept {}
  };
  Awaiter arrive_and_wait() noexcept { return Awaiter{*this, {}}; }

  std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  void release_all();

  Simulator* sim_;
  std::size_t parties_;
  WaiterList waiters_;
};

}  // namespace hm::sim
