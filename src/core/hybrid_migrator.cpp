#include "core/hybrid_migrator.h"

#include <cassert>

namespace hm::core {

HybridSession::HybridSession(sim::Simulator& sim, vm::Cluster& cluster,
                             MigrationManager* mgr, net::NodeId dst_node,
                             MigrationRecord& rec, HybridConfig cfg)
    : StorageMigrationSession(sim, cluster, mgr, dst_node, rec),
      cfg_(cfg),
      write_count_(mgr->replica().num_chunks(), 0),
      transfer_count_(mgr->replica().num_chunks(), 0),
      in_remaining_(mgr->replica().num_chunks()),
      superseded_(mgr->replica().num_chunks()),
      in_push_queue_(mgr->replica().num_chunks()),
      push_wakeup_(sim),
      push_stopped_(sim),
      pull_gate_(sim, /*open=*/true),
      pulling_(mgr->replica().num_chunks()),
      source_released_(sim),
      rng_(cluster.rng().fork("hybrid-session", static_cast<std::uint64_t>(rec.vm_id))) {}

HybridSession::~HybridSession() = default;

std::uint32_t HybridSession::alloc_pull_slot() {
  if (pull_free_ != kNilSlot) {
    const std::uint32_t slot = pull_free_;
    pull_free_ = pull_slab_[slot].next_free;
    return slot;
  }
  pull_slab_.emplace_back();
  return static_cast<std::uint32_t>(pull_slab_.size() - 1);
}

void HybridSession::release_pull_slot(std::uint32_t slot) noexcept {
  PullState& st = pull_slab_[slot];
  st.done.reset();  // waiters were already enqueued by set()
  st.chunk = storage::kNoChunk;
  st.cancelled = false;
  st.next_free = pull_free_;
  pull_free_ = slot;
}

std::uint32_t HybridSession::inflight_slot(ChunkId c) const noexcept {
  if (!pulling_.test(c)) return kNilSlot;
  for (std::uint32_t slot = 0; slot < pull_slab_.size(); ++slot)
    if (pull_slab_[slot].chunk == c) return slot;
  assert(false && "pulling_ bit set without a slab slot");
  return kNilSlot;
}

void HybridSession::count_transfer(ChunkId c) noexcept {
  if (transfer_count_[c] != std::numeric_limits<std::uint8_t>::max()) ++transfer_count_[c];
}

void HybridSession::add_remaining(ChunkId c) { in_remaining_.set(c); }

void HybridSession::remove_remaining(ChunkId c) { in_remaining_.reset(c); }

bool HybridSession::is_duplicate(ChunkId c) const {
  if (!cfg_.dedup.enabled || cfg_.dedup.duplicate_fraction <= 0) return false;
  // Deterministic per-(session, chunk) draw so repeated transfers of a
  // chunk agree on its duplicate status.
  const std::uint64_t h =
      sim::splitmix64(static_cast<std::uint64_t>(rec_.vm_id) * 0x9e3779b9ULL + c);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < cfg_.dedup.duplicate_fraction;
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
    if (has_resume_ && resume_valid_.test(c)) return;
    add_remaining(c);
    if (cfg_.push_enabled) {
      push_queue_.push_back(c);
      in_push_queue_.set(c);
    }
  });
  if (cfg_.push_enabled) {
    push_running_ = true;
    sim_.spawn(push_task());
  } else {
    push_stopped_.set();
  }
}

bool HybridSession::next_pushable(ChunkId& out) {
  while (!push_queue_.empty()) {
    const ChunkId c = push_queue_.front();
    push_queue_.pop_front();
    in_push_queue_.reset(c);
    if (!in_remaining_.test(c)) continue;         // already handled
    if (write_count_[c] >= cfg_.threshold) {      // hot chunk: defer to pull phase
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
    co_await dst_store_->write_chunk(c);
    ++chunks_pushed_;
    count_transfer(c);
    rec_.storage_chunks_pushed += 1;
  }
  push_running_ = false;
  push_stopped_.set();
}

// Algorithm 2 (WRITE), both roles.
sim::Task HybridSession::vm_write(ChunkId c) {
  if (!control_transferred_) {
    // Source role (Algorithm 2): WriteCount/RemainingSet update in the
    // request path, before the local write pays the host bus — a handoff
    // racing the in-flight write must still see the chunk as remaining.
    ++write_count_[c];
    add_remaining(c);
    if (cfg_.push_enabled && !stop_push_ && write_count_[c] < cfg_.threshold &&
        !in_push_queue_.test(c)) {
      push_queue_.push_back(c);
      in_push_queue_.set(c);
    }
    push_wakeup_.notify_all();
    co_await mgr_->local_write(c);
    co_return;
  }
  // Destination role: the new data supersedes whatever the source had —
  // cancel any pull in progress and drop the chunk from RemainingSet.
  superseded_.set(c);
  const std::uint32_t slot = inflight_slot(c);
  if (slot != kNilSlot) {
    pull_slab_[slot].cancelled = true;
    ++cancelled_pulls_;
  }
  if (in_remaining_.test(c)) {
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
      // be recycled before we resume, which is fine (set() has already
      // enqueued the wakeup by then).
      sim::Event& done = *pull_slab_[slot].done;
      co_await done.wait();
    } else if (in_remaining_.test(c)) {
      // Case 2: scheduled but not started — suspend BACKGROUND_PULL and
      // fetch this chunk with priority.
      pull_gate_.close();
      remove_remaining(c);
      ++demand_pulls_;
      co_await do_pull(c, /*on_demand=*/true);
      pull_gate_.open();
    }
  }
  co_await mgr_->local_read(c);
}

bool HybridSession::next_pull_candidate(ChunkId& out) {
  switch (cfg_.pull_order) {
    case PullOrder::kByWriteCount:
      while (!pull_heap_.empty()) {
        auto [count, c] = pull_heap_.top();
        pull_heap_.pop();
        if (!in_remaining_.test(c) || count != write_count_[c]) continue;  // stale
        out = c;
        return true;
      }
      return false;
    case PullOrder::kFifo:
    case PullOrder::kRandom:
      while (!pull_fifo_.empty()) {
        std::size_t idx = 0;
        if (cfg_.pull_order == PullOrder::kRandom) {
          idx = static_cast<std::size_t>(rng_.uniform(pull_fifo_.size()));
          std::swap(pull_fifo_[idx], pull_fifo_.front());
        }
        const ChunkId c = pull_fifo_.front();
        pull_fifo_.pop_front();
        if (!in_remaining_.test(c)) continue;
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
    co_await do_pull(c, /*on_demand=*/false);
  }
  maybe_release_source();
}

sim::Task HybridSession::do_pull(ChunkId c, bool on_demand) {
  (void)on_demand;
  const std::uint32_t slot = alloc_pull_slot();
  pull_slab_[slot].done.emplace(sim_);
  pull_slab_[slot].chunk = c;
  pull_slab_[slot].cancelled = false;
  pulling_.set(c);
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
  if (!pull_slab_[slot].cancelled) {
    co_await dst_store_->write_chunk(c);
  }
  ++chunks_pulled_;
  count_transfer(c);
  pull_log_.push_back(c);
  rec_.storage_chunks_pulled += 1;
  pulling_.reset(c);
  --active_pulls_;
  pull_slab_[slot].done->set();
  release_pull_slot(slot);
  maybe_release_source();
}

void HybridSession::maybe_release_source() {
  if (control_transferred_ && in_remaining_.count() == 0 && active_pulls_ == 0 &&
      !source_released_.is_set()) {
    source_released_.set();
  }
}

// Hypervisor SYNC on the source: stop pushing, hand the destination the
// remaining chunk list + write counts (TRANSFER_IO_CONTROL), start pulling.
sim::Task HybridSession::pre_control_transfer() {
  stop_push_ = true;
  push_wakeup_.notify_all();
  co_await push_stopped_.wait();
  if (aborted_) co_return;  // fault hit during the push drain: no handoff

  // Ship RemainingSet + WriteCount to the destination.
  const double list_bytes =
      kListEntryBytes * static_cast<double>(in_remaining_.count()) + 64;
  if (!co_await cluster_.network().transfer(src_node_, dst_node_, list_bytes,
                                            net::TrafficClass::kControl)) {
    aborted_ = true;  // a crash raced the handoff: control must not move
    co_return;
  }
  // Pre-size the pull log so steady-state pulls never grow it (the
  // allocation-regression suite pins the pull phase at zero heap traffic).
  pull_log_.reserve(pull_log_.size() + in_remaining_.count());
  // Seed the pull scheduler (word-scan of the packed RemainingSet).
  in_remaining_.for_each_set([this](std::uint64_t c64) {
    const ChunkId c = static_cast<ChunkId>(c64);
    if (cfg_.pull_order == PullOrder::kByWriteCount)
      pull_heap_.emplace(write_count_[c], c);
    else
      pull_fifo_.push_back(c);
  });
  pull_started_ = true;
  sim_.spawn(pull_task());
}

sim::Task HybridSession::wait_source_released() {
  assert(pull_started_ && control_transferred_);
  maybe_release_source();
  co_await source_released_.wait();
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

std::unique_ptr<storage::ChunkStore> HybridSession::take_partial_destination(
    util::DirtyBitmap* valid_out) {
  if (control_transferred_ || dst_store_owned_ == nullptr) return nullptr;
  // Current at the destination = pushed there and not re-dirtied since
  // (a later source write puts the chunk back into RemainingSet).
  valid_out->resize(dst_store_owned_->num_chunks());
  valid_out->clear();
  dst_store_owned_->for_each_modified([&](ChunkId c) {
    if (!in_remaining_.test(c)) valid_out->set(c);
  });
  dst_store_ = nullptr;
  return std::move(dst_store_owned_);
}

}  // namespace hm::core
