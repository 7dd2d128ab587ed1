// Concurrency stress for the validation fast paths added with the
// signature-filter work: NOrec's commit write-signature ring (publish /
// read races under real threads, intended for -DVOTM_SANITIZE=thread via
// the check-tsan preset) and the orec engines' deduped read logs under
// stripe aliasing. Labeled `stress` in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace votm::stm {
namespace {

template <typename Body>
void run_threads(unsigned threads, Body&& body) {
  StartBarrier barrier(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      TxThread tx;
      barrier.arrive_and_wait();
      body(t, tx);
    });
  }
  for (auto& th : pool) th.join();
}

// Readers take large read-only snapshots while disjoint writers commit and
// publish signatures; the filter path should skip most value validations,
// and under TSan every ring access is checked for races. The oracle is
// snapshot consistency: every pair the writers keep equal must read equal.
TEST(ValidationFilterStress, NorecReadersSkipDisjointCommits) {
  NOrecEngine engine(/*commit_filters=*/true);
  constexpr unsigned kReaders = 6;
  constexpr unsigned kWriters = 2;
  constexpr int kSnapshotWords = 64;
  std::vector<Word> shared(kSnapshotWords, 0);  // readers' snapshot region
  std::vector<Word> privates(kWriters * 16, 0); // writers' disjoint region
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> pool;
  StartBarrier barrier(kReaders + kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    pool.emplace_back([&, w] {
      TxThread tx;
      barrier.arrive_and_wait();
      // Writers touch only their own stripe of `privates`, so reader
      // signatures and writer signatures are (modulo Bloom collisions)
      // disjoint — the readers' fast path actually runs.
      for (Word v = 1; v <= 3000; ++v) {
        atomically(engine, tx, [&](TxThread& t) {
          for (int i = 0; i < 4; ++i) {
            engine.write(t, &privates[w * 16 + i], v);
          }
        });
      }
      stop.store(true);
    });
  }
  for (unsigned r = 0; r < kReaders; ++r) {
    pool.emplace_back([&] {
      TxThread tx;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        Word first = 0;
        bool consistent = true;
        atomically(engine, tx, [&](TxThread& t) {
          first = engine.read(t, &shared[0]);
          consistent = true;
          for (int i = 1; i < kSnapshotWords; ++i) {
            consistent = consistent && engine.read(t, &shared[i]) == first;
          }
        });
        if (!consistent) torn.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(torn.load(), 0u);
}

// Forces the overlap/fallback path: every transaction reads AND writes the
// same hot counters, so commit signatures always intersect reader
// signatures and values_match() must run. The oracle is exactness.
TEST(ValidationFilterStress, NorecFallbackKeepsCountersExact) {
  NOrecEngine engine(/*commit_filters=*/true);
  constexpr unsigned kThreads = 8;
  constexpr int kIncrements = 1500;
  Word a = 0, b = 0;
  run_threads(kThreads, [&](unsigned, TxThread& tx) {
    for (int i = 0; i < kIncrements; ++i) {
      atomically(engine, tx, [&](TxThread& t) {
        engine.write(t, &a, engine.read(t, &a) + 1);
        engine.write(t, &b, engine.read(t, &b) + 1);
      });
    }
  });
  EXPECT_EQ(a, static_cast<Word>(kThreads) * kIncrements);
  EXPECT_EQ(b, static_cast<Word>(kThreads) * kIncrements);
}

// Signature-ring wrap: a burst of tiny commits overruns the 64-slot ring
// between a reader's snapshot and its validation, forcing the conservative
// full-validation fallback. Snapshot consistency must survive the wrap.
TEST(ValidationFilterStress, NorecRingWrapFallsBackSafely) {
  NOrecEngine engine(/*commit_filters=*/true);
  constexpr unsigned kWriters = 4;
  Word x = 0, y = 0;
  std::vector<Word> noise(kWriters, 0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> pool;
  StartBarrier barrier(kWriters + 1);
  for (unsigned w = 0; w < kWriters; ++w) {
    pool.emplace_back([&, w] {
      TxThread tx;
      barrier.arrive_and_wait();
      for (Word v = 1; v <= 4000; ++v) {
        // Every ~16th transaction bumps the x==y pair; the rest are tiny
        // commits that spin the sequence lock past the ring capacity.
        atomically(engine, tx, [&](TxThread& t) {
          if (v % 16 == 0) {
            const Word nx = engine.read(t, &x) + 1;
            engine.write(t, &x, nx);
            engine.write(t, &y, nx);
          } else {
            engine.write(t, &noise[w], v);
          }
        });
      }
      stop.store(true);
    });
  }
  pool.emplace_back([&] {
    TxThread tx;
    barrier.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      Word sx = 0, sy = 0;
      atomically(engine, tx, [&](TxThread& t) {
        sx = engine.read(t, &x);
        sy = engine.read(t, &y);
      });
      if (sx != sy) torn.fetch_add(1);
    }
  });
  for (auto& th : pool) th.join();
  EXPECT_EQ(torn.load(), 0u);
}

// Orec read-log dedup under heavy stripe aliasing: a tiny orec table makes
// many addresses share stripes, and each transaction re-reads its working
// set several times. Exact counters prove validation over the deduped log
// is still sound.
TEST(ValidationFilterStress, OrecDedupExactUnderAliasing) {
  OrecEagerRedoEngine engine(/*orec_table_size=*/16);
  constexpr unsigned kThreads = 8;
  constexpr int kIncrements = 1000;
  constexpr int kCells = 8;
  std::vector<Word> cells(kCells, 0);
  run_threads(kThreads, [&](unsigned tid, TxThread& tx) {
    Xoshiro256 rng(tid + 1);
    for (int i = 0; i < kIncrements; ++i) {
      const auto cell = static_cast<std::size_t>(rng.below(kCells));
      atomically(engine, tx, [&](TxThread& t) {
        // Redundant scans of the whole array: every orec is hit many
        // times per transaction, so the dedup probe is the common case.
        Word sum = 0;
        for (int pass = 0; pass < 3; ++pass) {
          for (int c = 0; c < kCells; ++c) {
            sum += engine.read(t, &cells[static_cast<std::size_t>(c)]);
          }
        }
        (void)sum;
        engine.write(t, &cells[cell], engine.read(t, &cells[cell]) + 1);
      });
    }
  });
  Word total = 0;
  for (Word c : cells) total += c;
  EXPECT_EQ(total, static_cast<Word>(kThreads) * kIncrements);
}

}  // namespace
}  // namespace votm::stm
