// Thread-local, size-bucketed free-list pool for coroutine frames.
//
// Every sim::Task coroutine frame is allocated through this pool (see
// Task::promise_type::operator new), so in steady state the per-chunk data
// path of the migrators never touches the system allocator: a completed
// frame's memory goes onto a bucket free list and the next coroutine of a
// similar size reuses it. This is the same recycling discipline as the
// Simulator's event slab, extended to coroutine frames.
//
// Thread safety: the pool is thread_local. That is safe under the project's
// concurrency model — the one fan-out (cloud/executor.h) runs each slice,
// its own Simulator and every coroutine it creates and destroys, entirely
// on the worker thread that claimed it, so frames are always returned to
// the pool they came from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace hm::sim {

class FramePool {
 public:
  /// Monotonic counters (never reset); callers snapshot and diff.
  struct Stats {
    std::uint64_t served = 0;  // frames handed out (pooled sizes)
    std::uint64_t reused = 0;  // of those, satisfied from a free list
    std::uint64_t heap = 0;    // system allocations (slab growth + oversize)
  };

  static FramePool& local() noexcept {
    thread_local FramePool pool;
    return pool;
  }

  void* allocate(std::size_t n) {
    if (n == 0) n = 1;
    if (n > kMaxPooledBytes) {
      ++stats_.heap;
      return ::operator new(n);
    }
    ++stats_.served;
    const std::size_t b = bucket_of(n);
    if (FreeNode* node = free_[b]) {
      free_[b] = node->next;
      ++stats_.reused;
      return node;
    }
    return carve(b);
  }

  void deallocate(void* p, std::size_t n) noexcept {
    if (n == 0) n = 1;
    if (n > kMaxPooledBytes) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    const std::size_t b = bucket_of(n);
    node->next = free_[b];
    free_[b] = node;
  }

  const Stats& stats() const noexcept { return stats_; }

  /// Bytes of slab memory currently owned (tests assert growth behaviour).
  std::size_t slab_bytes() const noexcept { return slabs_.size() * kSlabBytes; }

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (void* s : slabs_) ::operator delete(s);
  }

  static constexpr std::size_t kGranularity = 64;  // bucket width, bytes
  static constexpr std::size_t kMaxPooledBytes = 4096;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

 private:
  static constexpr std::size_t kBuckets = kMaxPooledBytes / kGranularity;

  struct FreeNode {
    FreeNode* next;
  };

  static std::size_t bucket_of(std::size_t n) noexcept {
    return (n + kGranularity - 1) / kGranularity - 1;
  }

  /// Bucket empty: grab a fresh slab, carve it into frames of this bucket's
  /// size, return one and free-list the rest. Growth is unbounded by design
  /// (exhaustion adds a slab); memory is returned only at thread exit.
  void* carve(std::size_t b) {
    const std::size_t frame = (b + 1) * kGranularity;
    void* slab = ::operator new(kSlabBytes);
    ++stats_.heap;
    slabs_.push_back(slab);
    char* base = static_cast<char*>(slab);
    const std::size_t count = kSlabBytes / frame;
    for (std::size_t i = 1; i < count; ++i) {
      FreeNode* node = reinterpret_cast<FreeNode*>(base + i * frame);
      node->next = free_[b];
      free_[b] = node;
    }
    return base;
  }

  FreeNode* free_[kBuckets] = {};
  std::vector<void*> slabs_;
  Stats stats_;
};

}  // namespace hm::sim
