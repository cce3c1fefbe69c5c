#include "core/hybrid_migrator.h"

#include <cassert>

namespace hm::core {

HybridSession::HybridSession(sim::Simulator& sim, vm::Cluster& cluster,
                             MigrationManager* mgr, net::NodeId dst_node,
                             MigrationRecord& rec, HybridConfig cfg)
    : StorageMigrationSession(sim, cluster, mgr, dst_node, rec),
      cfg_(cfg),
      xfer_(std::in_place, mgr->replica().num_chunks()),
      push_wakeup_(sim),
      push_stopped_(sim, /*open=*/false),
      pull_gate_(sim, /*open=*/true),
      source_released_(sim, /*open=*/false) {
  if (cfg_.pull_order == PullOrder::kRandom)
    xfer_->rng = std::make_unique<sim::Rng>(
        cluster.rng().fork("hybrid-session", static_cast<std::uint64_t>(rec.vm_id)));
}

HybridSession::TransferState::TransferState(std::uint32_t chunks)
    : write_count(chunks, 0),
      transfer_count(chunks, 0),
      in_remaining(chunks),
      superseded(chunks),
      in_push_queue(chunks),
      pulling(chunks) {}

HybridSession::~HybridSession() = default;

std::uint32_t HybridSession::alloc_pull_slot() {
  TransferState& t = xfer();
  if (t.pull_free != kNilSlot) {
    const std::uint32_t slot = t.pull_free;
    t.pull_free = t.pull_slab[slot].next_free;
    return slot;
  }
  t.pull_slab.emplace_back();
  return static_cast<std::uint32_t>(t.pull_slab.size() - 1);
}

void HybridSession::release_pull_slot(std::uint32_t slot) noexcept {
  TransferState& t = xfer();
  PullState& st = t.pull_slab[slot];
  st.done.reset();  // waiters were already enqueued by open()
  st.chunk = storage::kNoChunk;
  st.cancelled = false;
  st.next_free = t.pull_free;
  t.pull_free = slot;
}

std::uint32_t HybridSession::inflight_slot(ChunkId c) const noexcept {
  const TransferState& t = xfer();
  if (!t.pulling.test(c)) return kNilSlot;
  for (std::uint32_t slot = 0; slot < t.pull_slab.size(); ++slot)
    if (t.pull_slab[slot].chunk == c) return slot;
  assert(false && "pulling bit set without a slab slot");
  return kNilSlot;
}

void HybridSession::count_transfer(ChunkId c) noexcept {
  std::uint8_t& n = xfer().transfer_count[c];
  if (n != std::numeric_limits<std::uint8_t>::max()) ++n;
}

void HybridSession::add_remaining(ChunkId c) { xfer().in_remaining.set(c); }

void HybridSession::remove_remaining(ChunkId c) { xfer().in_remaining.reset(c); }

bool HybridSession::is_duplicate(ChunkId c) const {
  if (cfg_.duplicate_fraction <= 0) return false;
  // Deterministic per-(session, chunk) draw so repeated transfers of a
  // chunk agree on its duplicate status.
  const std::uint64_t h =
      sim::splitmix64(static_cast<std::uint64_t>(rec_.vm_id) * 0x9e3779b9ULL + c);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < cfg_.duplicate_fraction;
}

double HybridSession::wire_bytes(ChunkId c) {
  if (is_duplicate(c)) {
    ++dedup_hits_;
    return kFingerprintBytes;
  }
  return static_cast<double>(src_store_->image().chunk_bytes);
}

// Algorithm 1: RemainingSet <- ModifiedSet, WriteCount <- 0, start push.
// On a retry with an adopted partial destination, chunks already current
// there are skipped — that is the resumed work.
void HybridSession::start() {
  src_store_->for_each_modified([this](ChunkId c) {
    if (resumed_current(c)) return;
    add_remaining(c);
    if (cfg_.push_enabled) {
      xfer().push_queue.push_back(c);
      xfer().in_push_queue.set(c);
    }
  });
  if (cfg_.push_enabled) {
    spawn_task(push_task());
  } else {
    push_stopped_.open();
  }
}

bool HybridSession::next_pushable(ChunkId& out) {
  TransferState& t = xfer();
  while (!t.push_queue.empty()) {
    const ChunkId c = t.push_queue.front();
    t.push_queue.pop_front();
    t.in_push_queue.reset(c);
    if (!t.in_remaining.test(c)) continue;         // already handled
    if (t.write_count[c] >= cfg_.threshold) {      // hot chunk: defer to pull phase
      ++push_skipped_hot_;
      continue;
    }
    out = c;
    return true;
  }
  return false;
}

// Algorithm 1, BACKGROUND PUSH: stream pushable chunks to the destination.
sim::Task HybridSession::push_task() {
  auto& net = cluster_.network();
  for (;;) {
    if (stop_push_) break;
    ChunkId c;
    if (!next_pushable(c)) {
      co_await push_wakeup_.wait();
      continue;
    }
    remove_remaining(c);
    co_await src_store_->read_chunk(c);
    if (!co_await net.transfer(src_node_, dst_node_, wire_bytes(c),
                               net::TrafficClass::kStoragePush)) {
      // An endpoint crashed under the push: the chunk never arrived, so it
      // goes back into RemainingSet (the retry re-pushes it). The loop head
      // observes stop_push_, which the abort raised.
      add_remaining(c);
      continue;
    }
    if (dst_store_ == nullptr) break;  // salvaged under the push: no replica left
    co_await dst_store_->write_chunk(c);
    ++chunks_pushed_;
    count_transfer(c);
    rec_.storage_chunks_pushed += 1;
  }
  push_stopped_.open();
  task_exited();
}

// Algorithm 2 (WRITE), both roles.
sim::Task HybridSession::vm_write(ChunkId c) {
  if (!control_transferred_) {
    // Source role (Algorithm 2): WriteCount/RemainingSet update in the
    // request path, before the local write pays the host bus — a handoff
    // racing the in-flight write must still see the chunk as remaining.
    ++xfer().write_count[c];
    add_remaining(c);
    if (cfg_.push_enabled && !stop_push_ && xfer().write_count[c] < cfg_.threshold &&
        !xfer().in_push_queue.test(c)) {
      xfer().push_queue.push_back(c);
      xfer().in_push_queue.set(c);
    }
    push_wakeup_.notify_all();
    co_await mgr_->local_write(c);
    co_return;
  }
  // Destination role: the new data supersedes whatever the source had —
  // cancel any pull in progress and drop the chunk from RemainingSet.
  xfer().superseded.set(c);
  const std::uint32_t slot = inflight_slot(c);
  if (slot != kNilSlot) {
    xfer().pull_slab[slot].cancelled = true;
    ++cancelled_pulls_;
  }
  if (xfer().in_remaining.test(c)) {
    remove_remaining(c);
    maybe_release_source();
  }
  co_await mgr_->local_write(c);
}

// Algorithm 4 (READ) on the destination.
sim::Task HybridSession::vm_read(ChunkId c) {
  if (control_transferred_) {
    const std::uint32_t slot = inflight_slot(c);
    if (slot != kNilSlot) {
      // Case 1: already being pulled — wait for completion. The slot's
      // event is registered with synchronously here; the slot itself may
      // be recycled before we resume, which is fine (open() has already
      // enqueued the wakeup by then).
      sim::Gate& done = *xfer().pull_slab[slot].done;
      co_await done.wait_open();
    } else if (xfer().in_remaining.test(c)) {
      // Case 2: scheduled but not started — suspend BACKGROUND_PULL and
      // fetch this chunk with priority.
      pull_gate_.close();
      remove_remaining(c);
      ++demand_pulls_;
      co_await do_pull(c);
      pull_gate_.open();
    }
  }
  co_await mgr_->local_read(c);
}

bool HybridSession::next_pull_candidate(ChunkId& out) {
  TransferState& t = xfer();
  switch (cfg_.pull_order) {
    case PullOrder::kByWriteCount:
      while (!t.pull_heap.empty()) {
        auto [count, c] = t.pull_heap.top();
        t.pull_heap.pop();
        if (!t.in_remaining.test(c) || count != t.write_count[c]) continue;  // stale
        out = c;
        return true;
      }
      return false;
    case PullOrder::kFifo:
    case PullOrder::kRandom:
      while (!t.pull_fifo.empty()) {
        std::size_t idx = 0;
        if (cfg_.pull_order == PullOrder::kRandom) {
          idx = static_cast<std::size_t>(t.rng->uniform(t.pull_fifo.size()));
          std::swap(t.pull_fifo[idx], t.pull_fifo.front());
        }
        const ChunkId c = t.pull_fifo.front();
        t.pull_fifo.pop_front();
        if (!t.in_remaining.test(c)) continue;
        out = c;
        return true;
      }
      return false;
  }
  return false;
}

// Algorithm 3, BACKGROUND PULL: prefetch remaining chunks, hottest first.
sim::Task HybridSession::pull_task() {
  for (;;) {
    co_await pull_gate_.wait_open();
    ChunkId c;
    if (!next_pull_candidate(c)) break;
    remove_remaining(c);
    co_await do_pull(c);
  }
  maybe_release_source();
  task_exited();
}

sim::Task HybridSession::do_pull(ChunkId c) {
  const std::uint32_t slot = alloc_pull_slot();
  xfer().pull_slab[slot].done.emplace(sim_, /*open=*/false);
  xfer().pull_slab[slot].chunk = c;
  xfer().pull_slab[slot].cancelled = false;
  xfer().pulling.set(c);
  ++active_pulls_;
  auto& net = cluster_.network();
  // Pulls run only after control transfer, where aborts no longer happen:
  // a crashed endpoint is waited out (rebooted) and the pull retried, so
  // the destination never loses a chunk it already committed to fetch.
  for (;;) {
    if (!co_await net.transfer(dst_node_, src_node_, kPullRequestBytes,
                               net::TrafficClass::kControl)) {
      co_await net.wait_node_up(dst_node_);
      co_await net.wait_node_up(src_node_);
      continue;
    }
    co_await src_store_->read_chunk(c);
    if (co_await net.transfer(src_node_, dst_node_, wire_bytes(c),
                              net::TrafficClass::kStoragePull))
      break;
    co_await net.wait_node_up(dst_node_);
    co_await net.wait_node_up(src_node_);
  }
  if (!xfer().pull_slab[slot].cancelled) {
    co_await dst_store_->write_chunk(c);
  }
  ++chunks_pulled_;
  count_transfer(c);
  xfer().pull_log.push_back(c);
  rec_.storage_chunks_pulled += 1;
  xfer().pulling.reset(c);
  --active_pulls_;
  xfer().pull_slab[slot].done->open();
  release_pull_slot(slot);
  maybe_release_source();
}

void HybridSession::maybe_release_source() {
  if (control_transferred_ && xfer().in_remaining.count() == 0 && active_pulls_ == 0 &&
      !source_released_.is_open()) {
    source_released_.open();
  }
}

// Hypervisor SYNC on the source: stop pushing, hand the destination the
// remaining chunk list + write counts (TRANSFER_IO_CONTROL), start pulling.
sim::Task HybridSession::pre_control_transfer() {
  stop_push_ = true;
  push_wakeup_.notify_all();
  co_await push_stopped_.wait_open();
  if (aborted_) co_return;  // fault hit during the push drain: no handoff

  // Ship RemainingSet + WriteCount to the destination.
  const double list_bytes =
      kListEntryBytes * static_cast<double>(xfer().in_remaining.count()) + 64;
  if (!co_await cluster_.network().transfer(src_node_, dst_node_, list_bytes,
                                            net::TrafficClass::kControl)) {
    aborted_ = true;  // a crash raced the handoff: control must not move
    co_return;
  }
  // Pre-size the pull log so steady-state pulls never grow it (the
  // allocation-regression suite pins the pull phase at zero heap traffic).
  xfer().pull_log.reserve(xfer().pull_log.size() + xfer().in_remaining.count());
  // Seed the pull scheduler (word-scan of the packed RemainingSet).
  xfer().in_remaining.for_each_set([this](std::uint64_t c64) {
    const ChunkId c = static_cast<ChunkId>(c64);
    if (cfg_.pull_order == PullOrder::kByWriteCount)
      xfer().pull_heap.emplace(xfer().write_count[c], c);
    else
      xfer().pull_fifo.push_back(c);
  });
  pull_started_ = true;
  spawn_task(pull_task());
}

sim::Task HybridSession::wait_source_released() {
  assert(pull_started_ && control_transferred_);
  maybe_release_source();
  co_await source_released_.wait_open();
}

void HybridSession::abort() {
  StorageMigrationSession::abort();
  // Wind down the push loop; an idle push task wakes, sees stop_push_ and
  // exits. Pulls cannot be running (aborts only happen before control
  // transfer), so there is no slab to tear down here — do_pull slots are
  // recycled on their own completion path.
  stop_push_ = true;
  push_wakeup_.notify_all();
}

}  // namespace hm::core
