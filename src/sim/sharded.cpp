#include "sim/sharded.h"

#include <algorithm>
#include <thread>

namespace hm::sim {

std::uint64_t EpochBarrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t my_epoch = epoch_;
  if (++waiting_ == parties_) {
    if (reduce_) reduce_(my_epoch);
    waiting_ = 0;
    ++epoch_;
    cv_.notify_all();
    return my_epoch;
  }
  cv_.wait(lk, [&] { return epoch_ != my_epoch; });
  return my_epoch;
}

std::uint64_t EpochBarrier::epochs_completed() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

ShardedSimulator::ShardedSimulator(std::uint32_t shards)
    : shards_(shards == 0 ? 1 : shards), barrier_(shards == 0 ? 1 : shards) {
  boxes_.resize(shards_);
  barrier_.set_reduce([this](std::uint64_t) { merge_epoch(); });
}

void ShardedSimulator::post(std::uint32_t from, std::uint32_t to, double t,
                            std::uint64_t payload) {
  Mailbox& box = boxes_[from];
  ShardMessage m;
  m.t = t;
  m.shard = from;
  m.seq = box.next_seq++;
  m.payload = payload;
  box.out.push_back(m);
  box.dest.push_back(to);
}

void ShardedSimulator::merge_epoch() {
  // Runs under the barrier mutex with every shard parked: all outboxes are
  // quiescent. Deterministic by construction — the merged order depends
  // only on message content (t, shard, seq), never on thread timing.
  for (Mailbox& box : boxes_) box.inbox.clear();
  for (std::uint32_t from = 0; from < shards_; ++from) {
    Mailbox& src = boxes_[from];
    for (std::size_t i = 0; i < src.out.size(); ++i)
      boxes_[src.dest[i]].inbox.push_back(src.out[i]);
    messages_total_ += src.out.size();
    src.out.clear();
    src.dest.clear();
  }
  for (Mailbox& box : boxes_)
    std::sort(box.inbox.begin(), box.inbox.end());
}

const std::vector<ShardMessage>& ShardedSimulator::exchange(std::uint32_t shard) {
  barrier_.arrive_and_wait();
  return boxes_[shard].inbox;
}

ShardedSimulator::Stats ShardedSimulator::run_epochs(
    const std::function<void(std::uint32_t)>& body) {
  Stats st;
  st.shards = shards_;
  // Bodies block on the shared barrier, so every shard needs its own
  // thread.
  std::vector<std::thread> pool;
  pool.reserve(shards_ - 1);
  for (std::uint32_t s = 1; s < shards_; ++s) pool.emplace_back([&body, s] { body(s); });
  body(0);
  for (auto& th : pool) th.join();
  st.epochs = barrier_.epochs_completed();
  st.messages = messages_total_;
  return st;
}

}  // namespace hm::sim
