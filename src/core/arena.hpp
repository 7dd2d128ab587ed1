// Per-view memory arena backing malloc_block / free_block / brk_view.
//
// Views bundle data and concurrency control (paper Sec. I: "This
// data-centric model bundles concurrency control and data access
// together"), so every view owns its own heap: a list of segments carved
// into [header][payload] blocks. All blocks are 16-byte aligned (the STM
// layer is word-granular).
//
// Two free structures, selected by payload size:
//   * small blocks (payload <= kBinLimit) are freed onto per-size LIFO
//     bins, one per kAlignment step, so the alloc/free pairs of the
//     transactional workloads (a node per insert, freed at reclaim) are
//     O(1) under the arena mutex;
//   * larger blocks and the untouched tail of each segment sit on an
//     address-ordered first-fit list with coalescing.
// When first-fit misses, every bin is folded back into that list (sorted
// by address, neighbours coalesced) and first-fit is retried, so the
// arena is fully coalesced before it throws std::bad_alloc — the
// forced-reclaim retry in View::alloc and brk_view see the same
// exhaustion point as with a single first-fit list.
//
// Allocation inside transactions is handled a level up (View logs
// transactional allocations and defers frees to commit); the arena itself
// is a plain thread-safe allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace votm::core {

class Arena {
 public:
  // Alignment of every returned block; >= alignof(max_align_t) not needed
  // for the transactional workloads, 16 keeps SSE-friendly layouts happy.
  static constexpr std::size_t kAlignment = 16;
  // Largest payload that is freed onto a size bin instead of the
  // first-fit list.
  static constexpr std::size_t kBinLimit = 4096;

  explicit Arena(std::size_t initial_bytes);
  ~Arena();  // unpoisons segments before they return to the heap (ASan)

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Allocates `size` bytes; throws std::bad_alloc when no segment can
  // satisfy the request (views have programmer-declared sizes; exhaustion
  // is a programming error, matching the paper's create_view(size) model —
  // call extend()/brk_view to grow).
  void* alloc(std::size_t size);

  // Returns a block to its bin or the free list; ptr must come from this
  // arena. Throws std::invalid_argument on a double free or a foreign
  // pointer.
  void free(void* ptr);

  // brk_view: adds a fresh segment of `bytes`.
  void extend(std::size_t bytes);

  std::size_t capacity() const;
  std::size_t allocated() const;  // bytes currently handed out (payloads)

  // True if ptr lies within one of this arena's segments (diagnostics).
  bool owns(const void* ptr) const;

 private:
  // Every block, free or allocated, starts with this header. A free
  // block keeps kMagicFreed readable here (so a second free is diagnosed
  // as such) and threads its bin or list link through the first payload
  // word.
  struct BlockHeader {
    std::size_t size;     // payload bytes
    std::uint64_t magic;  // guards double-free / foreign pointers
  };

  static constexpr std::uint64_t kMagicAllocated = 0x766f746d616c6c6fULL;
  static constexpr std::uint64_t kMagicFreed = 0x766f746d66726565ULL;
  static constexpr std::size_t kHeaderSize =
      (sizeof(BlockHeader) + kAlignment - 1) / kAlignment * kAlignment;
  static constexpr std::size_t kMinPayload = kAlignment;
  static constexpr std::size_t kBinCount = kBinLimit / kAlignment;

  static std::byte* payload_of(BlockHeader* blk);
  static std::byte* end_of(BlockHeader* blk);
  static BlockHeader* next_of(BlockHeader* blk);
  static void set_next(BlockHeader* blk, BlockHeader* next);
  static std::size_t bin_index(std::size_t payload);

  void add_segment_locked(std::size_t bytes);
  void insert_free_locked(BlockHeader* blk);
  BlockHeader* take_first_fit_locked(std::size_t payload);
  bool fold_bins_locked();
  void* grant_locked(BlockHeader* blk);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::byte[]>> segments_;
  std::vector<std::pair<const std::byte*, std::size_t>> segment_spans_;
  // Bin heads live out of line: an inline array would grow every View by
  // kBinCount pointers, which measurably slows view setup.
  std::unique_ptr<BlockHeader*[]> bins_;
  BlockHeader* free_head_ = nullptr;  // address-ordered first-fit list
  std::size_t capacity_ = 0;
  std::size_t allocated_ = 0;
};

}  // namespace votm::core
