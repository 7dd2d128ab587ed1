#include "core/arena.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>

// Manual ASan poisoning of free blocks: every free payload, binned or on
// the first-fit list, is poisoned so a use-after-free through the arena
// (exactly the hazard the epoch layer in stm/epoch.hpp exists to prevent)
// is a hard ASan report at the faulting load, not a silent value
// corruption. Headers of free blocks stay unpoisoned so free() can read
// the magic; the link word in the first payload word is unpoisoned only
// for the instant the arena itself reads or writes it.
#if defined(__SANITIZE_ADDRESS__)
#define VOTM_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VOTM_ARENA_ASAN 1
#endif
#endif
#ifndef VOTM_ARENA_ASAN
#define VOTM_ARENA_ASAN 0
#endif

#if VOTM_ARENA_ASAN
extern "C" {
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
void __asan_unpoison_memory_region(void const volatile* addr,
                                   std::size_t size);
}
#endif

namespace votm::core {

namespace {
std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

inline void poison_region(const void* p, std::size_t n) {
#if VOTM_ARENA_ASAN
  __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}

inline void unpoison_region(const void* p, std::size_t n) {
#if VOTM_ARENA_ASAN
  __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace

std::byte* Arena::payload_of(BlockHeader* blk) {
  return reinterpret_cast<std::byte*>(blk) + kHeaderSize;
}

std::byte* Arena::end_of(BlockHeader* blk) {
  return payload_of(blk) + blk->size;
}

Arena::BlockHeader* Arena::next_of(BlockHeader* blk) {
  std::byte* link = payload_of(blk);
  unpoison_region(link, sizeof(BlockHeader*));
  BlockHeader* next;
  std::memcpy(&next, link, sizeof next);
  poison_region(link, sizeof(BlockHeader*));
  return next;
}

void Arena::set_next(BlockHeader* blk, BlockHeader* next) {
  std::byte* link = payload_of(blk);
  unpoison_region(link, sizeof(BlockHeader*));
  std::memcpy(link, &next, sizeof next);
  poison_region(link, sizeof(BlockHeader*));
}

std::size_t Arena::bin_index(std::size_t payload) {
  return payload / kAlignment - 1;
}

Arena::Arena(std::size_t initial_bytes)
    : bins_(std::make_unique<BlockHeader*[]>(kBinCount)) {
  std::lock_guard<std::mutex> lk(mu_);
  add_segment_locked(std::max<std::size_t>(initial_bytes, kHeaderSize + kMinPayload));
}

Arena::~Arena() {
  // Hand the segments back to operator delete[] unpoisoned: freeing heap
  // chunks that contain manually poisoned sub-regions is undefined under
  // some ASan runtimes.
  for (const auto& [base, size] : segment_spans_) {
    unpoison_region(base, size);
  }
}

void Arena::add_segment_locked(std::size_t bytes) {
  const std::size_t usable = round_up(bytes, kAlignment);
  auto segment = std::make_unique<std::byte[]>(usable + kAlignment);
  // Align the segment base so headers and payloads stay aligned.
  auto base = reinterpret_cast<std::uintptr_t>(segment.get());
  std::byte* aligned =
      segment.get() + (round_up(base, kAlignment) - base);
  segment_spans_.emplace_back(aligned, usable);
  segments_.push_back(std::move(segment));
  capacity_ += usable;
  auto* blk = reinterpret_cast<BlockHeader*>(aligned);
  blk->size = usable - kHeaderSize;
  blk->magic = kMagicFreed;
  poison_region(payload_of(blk), blk->size);
  insert_free_locked(blk);
}

void Arena::insert_free_locked(BlockHeader* blk) {
  // blk is a free block with its payload already poisoned. Keep the list
  // address-ordered and coalesce with adjacent free neighbours; an
  // absorbed neighbour's header becomes free-payload interior: poison it.
  BlockHeader* prev = nullptr;
  BlockHeader* cur = free_head_;
  while (cur != nullptr && cur < blk) {
    prev = cur;
    cur = next_of(cur);
  }
  if (cur != nullptr && end_of(blk) == reinterpret_cast<std::byte*>(cur)) {
    blk->size += kHeaderSize + cur->size;
    BlockHeader* after = next_of(cur);
    poison_region(cur, kHeaderSize);
    cur = after;
  }
  if (prev != nullptr && end_of(prev) == reinterpret_cast<std::byte*>(blk)) {
    prev->size += kHeaderSize + blk->size;
    set_next(prev, cur);
    poison_region(blk, kHeaderSize);
    return;
  }
  set_next(blk, cur);
  if (prev != nullptr) {
    set_next(prev, blk);
  } else {
    free_head_ = blk;
  }
}

Arena::BlockHeader* Arena::take_first_fit_locked(std::size_t payload) {
  BlockHeader* prev = nullptr;
  for (BlockHeader* blk = free_head_; blk != nullptr;) {
    BlockHeader* next = next_of(blk);
    if (blk->size >= payload) {
      const std::size_t remainder = blk->size - payload;
      if (remainder >= kHeaderSize + kMinPayload) {
        // Split: the tail of the block stays free, in blk's list slot. Its
        // payload is already poisoned interior of blk's.
        auto* tail = reinterpret_cast<BlockHeader*>(payload_of(blk) + payload);
        unpoison_region(tail, kHeaderSize);
        tail->size = remainder - kHeaderSize;
        tail->magic = kMagicFreed;
        set_next(tail, next);
        next = tail;
        blk->size = payload;
      }
      if (prev != nullptr) {
        set_next(prev, next);
      } else {
        free_head_ = next;
      }
      return blk;
    }
    prev = blk;
    blk = next;
  }
  return nullptr;
}

bool Arena::fold_bins_locked() {
  // Gather before unlinking anything, so a failing heap allocation leaves
  // the bins and the list intact.
  std::vector<BlockHeader*> blocks;
  for (BlockHeader* b = free_head_; b != nullptr; b = next_of(b)) {
    blocks.push_back(b);
  }
  const std::size_t listed = blocks.size();
  for (std::size_t i = 0; i < kBinCount; ++i) {
    for (BlockHeader* b = bins_[i]; b != nullptr; b = next_of(b)) {
      blocks.push_back(b);
    }
  }
  if (blocks.size() == listed) return false;
  std::fill_n(bins_.get(), kBinCount, nullptr);
  std::sort(blocks.begin(), blocks.end(), std::less<>());

  // Rebuild the address-ordered list in one pass, coalescing neighbours.
  free_head_ = nullptr;
  BlockHeader* last = nullptr;
  for (BlockHeader* b : blocks) {
    if (last != nullptr && end_of(last) == reinterpret_cast<std::byte*>(b)) {
      last->size += kHeaderSize + b->size;
      poison_region(b, kHeaderSize);
      continue;
    }
    if (last != nullptr) {
      set_next(last, b);
    } else {
      free_head_ = b;
    }
    last = b;
  }
  set_next(last, nullptr);
  return true;
}

void* Arena::grant_locked(BlockHeader* blk) {
  std::byte* payload = payload_of(blk);
  unpoison_region(payload, blk->size);
  blk->magic = kMagicAllocated;
  allocated_ += blk->size;
  return payload;
}

void* Arena::alloc(std::size_t size) {
  const std::size_t payload = round_up(std::max(size, kMinPayload), kAlignment);
  std::lock_guard<std::mutex> lk(mu_);
  if (payload <= kBinLimit) {
    BlockHeader*& bin = bins_[bin_index(payload)];
    if (BlockHeader* blk = bin) {
      bin = next_of(blk);
      return grant_locked(blk);
    }
  }
  BlockHeader* blk = take_first_fit_locked(payload);
  if (blk == nullptr && fold_bins_locked()) {
    blk = take_first_fit_locked(payload);
  }
  if (blk == nullptr) throw std::bad_alloc();
  return grant_locked(blk);
}

void Arena::free(void* ptr) {
  if (ptr == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto* hdr = reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(ptr) -
                                             kHeaderSize);
  if (hdr->magic != kMagicAllocated) {
    throw std::invalid_argument(
        hdr->magic == kMagicFreed ? "double free in view arena"
                                  : "free of a pointer not from this view");
  }
  hdr->magic = kMagicFreed;
  allocated_ -= hdr->size;
  poison_region(ptr, hdr->size);
  if (hdr->size <= kBinLimit) {
    BlockHeader*& bin = bins_[bin_index(hdr->size)];
    set_next(hdr, bin);
    bin = hdr;
  } else {
    insert_free_locked(hdr);
  }
}

void Arena::extend(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  add_segment_locked(bytes);
}

std::size_t Arena::capacity() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_;
}

std::size_t Arena::allocated() const {
  std::lock_guard<std::mutex> lk(mu_);
  return allocated_;
}

bool Arena::owns(const void* ptr) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [base, size] : segment_spans_) {
    if (ptr >= base && ptr < base + size) return true;
  }
  return false;
}

}  // namespace votm::core
