// Unit tests for the per-view arena allocator: alignment, size-bin reuse,
// coalescing and the bin fold before exhaustion, double-free detection,
// extension (brk_view), exhaustion, and a multi-threaded churn.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "util/rng.hpp"

namespace votm::core {
namespace {

TEST(Arena, AllocationsAreAligned) {
  Arena arena(1 << 16);
  for (std::size_t size : {1u, 7u, 8u, 15u, 64u, 1000u}) {
    void* p = arena.alloc(size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlignment, 0u)
        << "size " << size;
  }
}

TEST(Arena, AllocationsDoNotOverlap) {
  Arena arena(1 << 16);
  std::vector<std::pair<char*, std::size_t>> blocks;
  for (int i = 0; i < 50; ++i) {
    const std::size_t size = 16 + 8 * static_cast<std::size_t>(i % 7);
    auto* p = static_cast<char*>(arena.alloc(size));
    std::memset(p, i, size);
    blocks.emplace_back(p, size);
  }
  // Every block still holds its fill pattern -> no overlap.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t b = 0; b < blocks[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i].first[b]),
                static_cast<unsigned char>(i));
    }
  }
}

TEST(Arena, FreeMakesMemoryReusable) {
  Arena arena(4096);
  void* a = arena.alloc(1024);
  arena.free(a);
  void* b = arena.alloc(1024);
  EXPECT_EQ(a, b);  // the size bin must hand the freed region back
  arena.free(b);
}

// Fills the arena with `size`-byte blocks until it throws; returns them.
std::vector<void*> fill(Arena& arena, std::size_t size) {
  std::vector<void*> blocks;
  try {
    for (;;) blocks.push_back(arena.alloc(size));
  } catch (const std::bad_alloc&) {
  }
  return blocks;
}

TEST(Arena, CoalescingAllowsFullSizeRealloc) {
  Arena arena(8192);
  // Fragment the whole arena, then free everything; an allocation of
  // nearly the full capacity succeeds only if every neighbour coalesced.
  std::vector<void*> blocks = fill(arena, 128);
  ASSERT_GT(blocks.size(), 32u);
  for (void* b : blocks) arena.free(b);
  EXPECT_EQ(arena.allocated(), 0u);
  void* big = nullptr;
  EXPECT_NO_THROW(big = arena.alloc(arena.capacity() - 64));
  arena.free(big);
}

TEST(Arena, FreedSizeIsReusedByNextAllocOfThatSize) {
  Arena arena(1 << 16);
  // Bin sizes up to the limit, plus one first-fit (large) size. The guard
  // allocation keeps the freed block from merging into the segment tail.
  for (std::size_t size : {std::size_t{1}, std::size_t{48}, std::size_t{1000},
                           Arena::kBinLimit, Arena::kBinLimit + 1}) {
    void* p = arena.alloc(size);
    void* guard = arena.alloc(16);
    arena.free(p);
    void* q = arena.alloc(size);
    EXPECT_EQ(p, q) << "size " << size;
    arena.free(q);
    arena.free(guard);
  }
  // Bins are LIFO: the most recently freed block of a size comes back
  // first, and a request that rounds to the same size shares its bin.
  void* x = arena.alloc(40);
  void* y = arena.alloc(48);
  arena.free(x);
  arena.free(y);
  EXPECT_EQ(arena.alloc(33), y);
  EXPECT_EQ(arena.alloc(48), x);
}

TEST(Arena, CrossSizeAllocAfterFreeAllSucceeds) {
  // Memory freed into one size's bin must serve other sizes once the
  // first-fit list runs dry: the bins fold back into the list and
  // coalesce before the arena reports exhaustion.
  for (std::size_t b_size : {std::size_t{80}, std::size_t{4000},
                             std::size_t{16384}}) {
    Arena arena(1 << 16);
    std::vector<void*> a_blocks = fill(arena, 48);
    ASSERT_FALSE(a_blocks.empty());
    for (void* p : a_blocks) arena.free(p);
    void* p = nullptr;
    EXPECT_NO_THROW(p = arena.alloc(b_size)) << "size " << b_size;
    arena.free(p);
    // The fold left no stranded fragments: size B (a multiple of 16)
    // packs the arena exactly like a fresh one, 16-byte header per block.
    std::vector<void*> b_blocks = fill(arena, b_size);
    EXPECT_EQ(b_blocks.size(), arena.capacity() / (b_size + 16))
        << "size " << b_size;
    for (void* q : b_blocks) arena.free(q);
    EXPECT_EQ(arena.allocated(), 0u);
  }
}

TEST(Arena, AllocatedAccounting) {
  Arena arena(1 << 16);
  EXPECT_EQ(arena.allocated(), 0u);
  void* a = arena.alloc(100);
  EXPECT_GE(arena.allocated(), 100u);
  arena.free(a);
  EXPECT_EQ(arena.allocated(), 0u);
}

TEST(Arena, ThrowsOnExhaustion) {
  Arena arena(1024);
  EXPECT_THROW(arena.alloc(1 << 20), std::bad_alloc);
}

TEST(Arena, ExtendAddsCapacity) {
  Arena arena(1024);
  EXPECT_THROW(arena.alloc(4096), std::bad_alloc);
  arena.extend(16384);
  EXPECT_NO_THROW(arena.alloc(4096));
}

// Returns the message free() throws, or "" if it does not throw.
std::string free_error(Arena& arena, void* p) {
  try {
    arena.free(p);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Arena, DoubleFreeDetected) {
  Arena arena(1 << 16);
  // A binned block and a first-fit-list block both keep the freed tag
  // readable, so the second free is diagnosed as a double free.
  void* small = arena.alloc(64);
  void* large = arena.alloc(Arena::kBinLimit * 2);
  void* guard = arena.alloc(16);
  arena.free(small);
  arena.free(large);
  EXPECT_EQ(free_error(arena, small), "double free in view arena");
  EXPECT_EQ(free_error(arena, large), "double free in view arena");
  arena.free(guard);
}

TEST(Arena, FreeNullIsNoop) {
  Arena arena(4096);
  EXPECT_NO_THROW(arena.free(nullptr));
}

TEST(Arena, OwnsIdentifiesResidentPointers) {
  Arena arena(4096);
  void* a = arena.alloc(64);
  int local = 0;
  EXPECT_TRUE(arena.owns(a));
  EXPECT_FALSE(arena.owns(&local));
  arena.free(a);
}

TEST(Arena, RandomAllocFreeStress) {
  Arena arena(1 << 18);
  Xoshiro256 rng(123);
  std::vector<std::pair<void*, std::size_t>> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.chance(3, 5)) {
      const std::size_t size = 8 + rng.below(256);
      try {
        void* p = arena.alloc(size);
        std::memset(p, 0xAB, size);
        live.emplace_back(p, size);
      } catch (const std::bad_alloc&) {
        // Free half and continue.
        for (std::size_t i = 0; i < live.size() / 2; ++i) {
          arena.free(live.back().first);
          live.pop_back();
        }
      }
    } else {
      const auto idx = static_cast<std::size_t>(rng.below(live.size()));
      arena.free(live[idx].first);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  for (auto& [p, s] : live) arena.free(p);
  EXPECT_EQ(arena.allocated(), 0u);
  // After releasing everything, a large allocation must succeed again.
  EXPECT_NO_THROW(arena.alloc(1 << 17));
}

TEST(Arena, ManySmallBlocksFillCapacityReasonably) {
  Arena arena(1 << 16);
  std::size_t count = 0;
  try {
    for (;;) {
      arena.alloc(16);
      ++count;
    }
  } catch (const std::bad_alloc&) {
  }
  // 16-byte payload + 16-byte header = 32 bytes per block; expect at least
  // 80% utilisation of the 64 KiB segment.
  EXPECT_GE(count, (std::size_t{1} << 16) / 32 * 8 / 10);
}

TEST(Arena, ConcurrentChurnAcrossBinAndLargeSizes) {
  // Four threads allocate, fill, verify and free blocks of bin and large
  // sizes in a deliberately small arena, so exhaustion (and with it the
  // bin fold) happens under contention. A block handed to two threads at
  // once, or scribbled while live, breaks its owner's fill pattern.
  constexpr unsigned kThreads = 4;
  constexpr int kSteps = 4000;
  constexpr std::size_t kMaxLive = 24;
  Arena arena(1 << 18);
  std::vector<std::thread> workers;
  std::vector<int> corrupt(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      struct Live {
        unsigned char* p;
        std::size_t size;
        unsigned char fill;
      };
      std::vector<Live> live;
      auto release = [&](std::size_t idx) {
        const Live blk = live[idx];
        for (std::size_t b = 0; b < blk.size; ++b) {
          if (blk.p[b] != blk.fill) {
            ++corrupt[t];
            break;
          }
        }
        arena.free(blk.p);
        live[idx] = live.back();
        live.pop_back();
      };
      for (int step = 0; step < kSteps; ++step) {
        if (live.size() < kMaxLive && (live.empty() || rng.chance(1, 2))) {
          const std::size_t size =
              rng.chance(4, 5) ? 1 + rng.below(Arena::kBinLimit)
                               : Arena::kBinLimit + 1 + rng.below(12288);
          const auto fill = static_cast<unsigned char>(t * 64 + step % 64);
          try {
            auto* p = static_cast<unsigned char*>(arena.alloc(size));
            std::memset(p, fill, size);
            live.push_back({p, size, fill});
          } catch (const std::bad_alloc&) {
            while (live.size() > kMaxLive / 2) release(live.size() - 1);
          }
        } else {
          release(static_cast<std::size_t>(rng.below(live.size())));
        }
      }
      while (!live.empty()) release(live.size() - 1);
    });
  }
  for (auto& w : workers) w.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(corrupt[t], 0) << "thread " << t;
  }
  EXPECT_EQ(arena.allocated(), 0u);
  EXPECT_NO_THROW(arena.free(arena.alloc(arena.capacity() / 2)));
}

}  // namespace
}  // namespace votm::core
