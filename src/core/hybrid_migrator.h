// Hybrid active-push / prioritized-prefetch storage transfer — the paper's
// primary contribution (Section 4.1, Algorithms 1–4).
//
// Active phase (source runs the VM):
//   * BACKGROUND_PUSH streams locally modified chunks to the destination.
//   * Every write increments WriteCount[c]; once WriteCount[c] >= Threshold
//     the chunk is "hot" and no longer pushed (it would most likely be
//     overwritten again), bounding per-chunk transfers by Threshold.
// Passive phase (after control transfer):
//   * The source sends the remaining chunk list + write counts
//     (TRANSFER_IO_CONTROL); BACKGROUND_PULL prefetches them in decreasing
//     WriteCount order.
//   * On-demand reads suspend the background pull and are served with
//     priority; writes at the destination cancel pending pulls (the old
//     content is obsolete).
//
// The pure post-copy baseline of Section 5.2 is this class with the push
// phase disabled, and the ablation benches reuse it with different pull
// orders and thresholds.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "core/migration_manager.h"
#include "sim/random.h"
#include "util/bitmap.h"

namespace hm::core {

enum class PullOrder : std::uint8_t {
  kByWriteCount,  // paper's prioritized prefetch
  kFifo,          // ablation: chunk-id order
  kRandom,        // ablation: uniformly random
};

struct HybridConfig {
  /// Max times a chunk is pushed before being declared hot. The paper keeps
  /// this a free parameter; the ablation/threshold scenarios sweep it.
  std::uint32_t threshold = 3;
  /// Disable to obtain the pure post-copy baseline.
  bool push_enabled = true;
  PullOrder pull_order = PullOrder::kByWriteCount;
  /// De-duplication extension (the paper's future work, Section 6): before
  /// moving a chunk, exchange a content fingerprint; if the destination
  /// already holds identical content (a base-image block, a zero chunk, a
  /// repeated pattern), only the fingerprint crosses the wire. Content
  /// itself is synthetic in this reproduction, so duplicate detection is
  /// modelled statistically: a deterministic per-chunk draw marks this
  /// fraction of the chunks as already present at the destination. 0 is off.
  double duplicate_fraction = 0.0;

  static constexpr std::uint32_t kUnlimitedThreshold =
      std::numeric_limits<std::uint32_t>::max();
};

class HybridSession final : public StorageMigrationSession {
 public:
  // Wire sizes are integral byte counts; they only become doubles at the
  // fluid-flow boundary (net::FlowNetwork::transfer).
  /// One (chunk id, write count) entry in TRANSFER_IO_CONTROL.
  static constexpr std::uint32_t kListEntryBytes = 12;
  /// One pull request.
  static constexpr std::uint32_t kPullRequestBytes = 256;
  /// The content fingerprint a de-duplicated chunk moves instead of itself.
  static constexpr std::uint32_t kFingerprintBytes = 64;

  HybridSession(sim::Simulator& sim, vm::Cluster& cluster, MigrationManager* mgr,
                net::NodeId dst_node, MigrationRecord& rec, HybridConfig cfg = {});
  ~HybridSession() override;

  void start() override;
  sim::Task pre_control_transfer() override;
  sim::Task wait_source_released() override;
  sim::Task vm_read(ChunkId c) override;
  sim::Task vm_write(ChunkId c) override;
  void abort() override;
  /// Pushed and not re-dirtied since (a source write puts the chunk back
  /// into RemainingSet).
  bool current_at_destination(ChunkId c) const override {
    return !xfer().in_remaining.test(c);
  }
  const util::DirtyBitmap* superseded_chunks() const noexcept override {
    return &xfer().superseded;
  }
  // --- introspection (tests / benches) -------------------------------------
  // The per-chunk accessors (write_count, remaining_size, transfer_count,
  // pull_log, superseded_chunks) read the transfer state, so they are valid
  // only until release_transfer_state(); the counters stay valid.
  std::uint32_t write_count(ChunkId c) const { return xfer().write_count[c]; }
  std::size_t remaining_size() const noexcept {
    return static_cast<std::size_t>(xfer().in_remaining.count());
  }
  std::uint64_t chunks_pushed() const noexcept { return chunks_pushed_; }
  std::uint64_t chunks_pulled() const noexcept { return chunks_pulled_; }
  std::uint64_t demand_pulls() const noexcept { return demand_pulls_; }
  std::uint64_t cancelled_pulls() const noexcept { return cancelled_pulls_; }
  std::uint64_t push_skipped_hot() const noexcept { return push_skipped_hot_; }
  /// Per-chunk network transfer count (push + pull); the paper's invariant
  /// is that this never exceeds Threshold + 1 for any chunk. Stored in one
  /// byte that saturates at 255: exact whenever Threshold + 1 <= 255. Only
  /// tests read it; nothing in a result depends on it.
  std::uint32_t transfer_count(ChunkId c) const { return xfer().transfer_count[c]; }
  /// Completed pulls in completion order (tests assert prefetch priority).
  const std::vector<ChunkId>& pull_log() const noexcept { return xfer().pull_log; }
  std::uint64_t dedup_hits() const noexcept { return dedup_hits_; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// In-flight pull bookkeeping lives in a slab of value slots recycled
  /// through a free list (one steady-state shared_ptr allocation per pull in
  /// the seed). Each slot names its chunk; the `pulling_` bitmap says
  /// whether a chunk has a slot at all, so only an in-flight chunk pays a
  /// scan of the slab, which holds one slot per concurrent pull (the
  /// background pull plus any on-demand reads). A deque keeps the
  /// non-movable intrusive Gate stable across growth. The Gate's waiter
  /// list is intrusive (nodes live in the waiting coroutines' frames), so
  /// emplacing and opening it never allocates — pull wakeups are heap-free
  /// end to end.
  struct PullState {
    std::optional<sim::Gate> done;  // emplaced closed per use of the slot
    ChunkId chunk = storage::kNoChunk;
    bool cancelled = false;
    std::uint32_t next_free = kNilSlot;
  };

  /// Everything the session keeps per chunk, plus the queues and the pull
  /// log that grow with the chunks moved. It lives for the attempt only:
  /// drop_transfer_state() frees it in one statement.
  struct TransferState {
    explicit TransferState(std::uint32_t chunks);

    std::vector<std::uint32_t> write_count;  // exact: it is the pull priority
    std::vector<std::uint8_t> transfer_count;  // saturating, see transfer_count()
    util::DirtyBitmap in_remaining;  // the paper's RemainingSet, packed
    // Chunks overwritten by the destination after control transfer; the
    // source copy is obsolete the moment the write is issued, so the source
    // may be released while the local write is still on the host bus.
    util::DirtyBitmap superseded;
    // push side
    std::deque<ChunkId> push_queue;
    util::DirtyBitmap in_push_queue;
    // pull side
    std::priority_queue<std::pair<std::uint32_t, ChunkId>> pull_heap;
    std::deque<ChunkId> pull_fifo;
    std::deque<PullState> pull_slab;
    std::uint32_t pull_free = kNilSlot;
    util::DirtyBitmap pulling;  // chunks with an in-flight pull slot
    std::vector<ChunkId> pull_log;
    // Draws the kRandom pull order; no other order builds it (2.5 KB).
    std::unique_ptr<sim::Rng> rng;
  };

  TransferState& xfer() noexcept { return live(xfer_); }
  const TransferState& xfer() const noexcept { return live(xfer_); }
  void drop_transfer_state() noexcept override { xfer_.reset(); }

  std::uint32_t alloc_pull_slot();
  void release_pull_slot(std::uint32_t slot) noexcept;
  /// Slab slot of c's in-flight pull, kNilSlot when c is not being pulled.
  std::uint32_t inflight_slot(ChunkId c) const noexcept;
  void count_transfer(ChunkId c) noexcept;  // saturating ++transfer_count[c]
  void add_remaining(ChunkId c);
  void remove_remaining(ChunkId c);
  /// Deterministic content-duplicate draw for chunk `c`.
  bool is_duplicate(ChunkId c) const;
  double wire_bytes(ChunkId c);
  bool next_pushable(ChunkId& out);
  bool next_pull_candidate(ChunkId& out);
  sim::Task push_task();
  sim::Task pull_task();
  sim::Task do_pull(ChunkId c);
  void maybe_release_source();

  HybridConfig cfg_;
  std::optional<TransferState> xfer_;

  sim::Notification push_wakeup_;
  bool stop_push_ = false;
  sim::Gate push_stopped_;

  sim::Gate pull_gate_;
  std::size_t active_pulls_ = 0;
  bool pull_started_ = false;
  sim::Gate source_released_;

  // stats
  std::uint64_t chunks_pushed_ = 0;
  std::uint64_t chunks_pulled_ = 0;
  std::uint64_t demand_pulls_ = 0;
  std::uint64_t cancelled_pulls_ = 0;
  std::uint64_t push_skipped_hot_ = 0;
  std::uint64_t dedup_hits_ = 0;
};

}  // namespace hm::core
