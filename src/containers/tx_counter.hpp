// TxCounter: a sharded transactional counter.
//
// A single-word counter makes every increment conflict with every other —
// exactly the pathological case RAC exists for. When the aggregate value is
// only needed occasionally, sharding by thread removes the conflicts while
// staying fully transactional: add() touches one shard (conflict-free for
// distinct threads), value() reads all shards in one transaction and is a
// consistent snapshot.
#pragma once

#include <atomic>
#include <cstddef>

#include "containers/read_tx.hpp"
#include "core/access.hpp"
#include "core/view.hpp"
#include "util/cacheline.hpp"

namespace votm::containers {

class TxCounter {
 public:
  // shards should be >= the expected thread count; rounded up to a power
  // of two. Each shard sits on its own cache line.
  TxCounter(core::View& view, std::size_t shards = 16)
      : view_(&view), shard_count_(round_pow2(shards)) {
    const std::size_t stride = kCacheLine / sizeof(stm::Word);
    slots_ = static_cast<stm::Word*>(
        view.alloc(shard_count_ * stride * sizeof(stm::Word)));
    stride_ = stride;
    for (std::size_t i = 0; i < shard_count_; ++i) {
      core::vwrite<stm::Word>(&slots_[i * stride_], 0);
    }
  }

  // tx: adds delta to the calling thread's shard.
  void add(stm::Word delta = 1) {
    core::vadd<stm::Word>(&slots_[shard_index() * stride_], delta);
  }

  // tx or standalone: consistent total across shards (standalone calls run
  // as their own read-only transaction).
  stm::Word value() const {
    return read_transactionally(*view_, [&] {
      stm::Word sum = 0;
      for (std::size_t i = 0; i < shard_count_; ++i) {
        sum += core::vread(&slots_[i * stride_]);
      }
      return sum;
    });
  }

  std::size_t shards() const noexcept { return shard_count_; }

 private:
  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  // Each thread takes the next shard in turn the first time it adds (to
  // any counter), so shards() threads that start together never share
  // one. (A hash of the thread id does not give that: 6 threads over 16
  // shards collide in about 2 runs of 3.)
  std::size_t shard_index() const noexcept {
    static std::atomic<std::size_t> next_slot{0};
    thread_local const std::size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed);
    return slot & (shard_count_ - 1);
  }

  core::View* view_;
  std::size_t shard_count_;
  std::size_t stride_ = 0;
  stm::Word* slots_ = nullptr;
};

}  // namespace votm::containers
