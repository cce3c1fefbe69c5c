// Parallel-in-process sharded simulation.
//
// A ShardedSimulator runs N shard bodies — each typically owning a private
// sim::Simulator plus the component slice it simulates — across worker
// threads drawn from the process-wide WorkerBudget. Two execution modes:
//
//  * run(body, max_workers): independent slices. Workers claim shard
//    indices from a shared counter; any number of threads (including just
//    the caller) produces the same per-shard results, because slices never
//    communicate. This is the mode the experiment harness uses once the
//    deterministic partitioner has proven the slices share no coupling at
//    all; its cfg.shards is the worker cap.
//
//  * run_epochs(body): message-passing slices. One dedicated thread per
//    shard (spawned regardless of budget grants — the shard count itself is
//    the caller's cap), so bodies may rendezvous on the shared EpochBarrier
//    and exchange ShardMessages at epoch boundaries. No experiment executor
//    uses it; perfbench's sim.shard_round_us probe times one exchange round.
//
// Determinism contract — why (t, shard, seq) ordering preserves
// byte-identity: within one shard, event order is already a pure function
// of the schedule calls (see sim/simulator.h). Cross-shard messages are the
// only way shards can influence each other, and every message carries its
// virtual timestamp `t`, its origin shard id, and an origin-local sequence
// number. At each exchange the barrier merges all outboxes and delivers
// them sorted by (t, shard, seq) — exactly the order a single-shard run
// would have interleaved the same notifications (time first, then the
// deterministic tie-break a global seq counter would have produced, since
// same-instant messages from one shard keep their emission order and
// messages from different shards are ordered by shard id, which the
// partitioner assigned deterministically). No wall-clock race can reorder
// them, so the merged timeline is independent of thread scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace hm::sim {

/// Cross-shard notification, globally ordered by (t, shard, seq).
struct ShardMessage {
  double t = 0.0;           // virtual timestamp of the originating event
  std::uint32_t shard = 0;  // origin shard
  std::uint64_t seq = 0;    // origin-local emission sequence
  std::uint64_t payload = 0;

  friend bool operator<(const ShardMessage& a, const ShardMessage& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  }
  friend bool operator==(const ShardMessage& a, const ShardMessage& b) noexcept {
    return a.t == b.t && a.shard == b.shard && a.seq == b.seq && a.payload == b.payload;
  }
};

/// Epoch rendezvous for N parties. The last party to arrive runs the reduce
/// step (ShardedSimulator's mailbox merge) while every peer is parked, then
/// releases them — so the reduce observes a quiescent epoch and its effects
/// are visible to all shards before any of them resumes.
class EpochBarrier {
 public:
  explicit EpochBarrier(std::uint32_t parties) : parties_(parties) {}
  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  /// Runs once per epoch, by the last arriver, before peers are released.
  void set_reduce(std::function<void(std::uint64_t epoch)> fn) { reduce_ = std::move(fn); }

  /// Block until all parties arrive; returns the index of the epoch just
  /// completed (0-based, monotonically increasing).
  std::uint64_t arrive_and_wait();

  std::uint64_t epochs_completed() const noexcept;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  const std::uint32_t parties_;
  std::uint32_t waiting_ = 0;
  std::uint64_t epoch_ = 0;
  std::function<void(std::uint64_t)> reduce_;
};

class ShardedSimulator {
 public:
  struct Stats {
    std::uint32_t shards = 0;
    std::uint32_t threads = 0;       // workers used, caller included
    std::uint64_t epochs = 0;        // barrier epochs completed (run_epochs)
    std::uint64_t messages = 0;      // cross-shard messages exchanged
  };

  explicit ShardedSimulator(std::uint32_t shards);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Post a cross-shard message from shard `from` to shard `to`. Visible to
  /// `to` after the next exchange(). Safe to call concurrently from
  /// different shards; a single shard posts from its own thread only.
  void post(std::uint32_t from, std::uint32_t to, double t, std::uint64_t payload);

  /// Rendezvous with every shard, then read this shard's merged inbox for
  /// the epoch: all messages addressed to `shard`, sorted by
  /// (t, shard, seq). The returned reference is valid until this shard's
  /// next exchange(). Callable only from bodies running under run_epochs().
  const std::vector<ShardMessage>& exchange(std::uint32_t shard);

  /// Independent-slice mode: run body(0..shards-1), workers claim indices
  /// in ascending order. Uses the caller plus up to min(shards,
  /// max_workers) - 1 budget-granted threads; max_workers <= 1 runs every
  /// shard in turn on the caller.
  Stats run(const std::function<void(std::uint32_t shard)>& body, std::uint32_t max_workers);

  /// From a body under run(): claim no further shards. Bodies already
  /// running finish; since claims ascend, every shard below the highest
  /// one claimed has run.
  void stop() noexcept { stopped_.store(true); }

  /// Message-passing mode: one dedicated thread per shard (budget-advisory),
  /// so bodies may call exchange()/post() and block on the barrier.
  Stats run_epochs(const std::function<void(std::uint32_t shard)>& body);

 private:
  void merge_epoch();

  const std::uint32_t shards_;
  EpochBarrier barrier_;

  // Outboxes are written only by their origin shard between barriers and
  // read only inside the barrier's reduce step, so the barrier's mutex is
  // the sole synchronizer — no per-message locking.
  struct Mailbox {
    std::vector<ShardMessage> out;   // messages posted this epoch
    std::vector<std::uint32_t> dest;  // destination shard, parallel to `out`
    std::uint64_t next_seq = 0;
    std::vector<ShardMessage> inbox;  // merged result for this shard
  };
  std::vector<Mailbox> boxes_;
  std::uint64_t messages_total_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace hm::sim
