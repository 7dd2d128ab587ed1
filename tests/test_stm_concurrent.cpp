// Multi-threaded invariant tests for each speculative STM engine:
// atomicity (no lost updates), isolation (consistent multi-word snapshots),
// conservation under concurrent transfers, abort accounting.
//
// Thread counts deliberately exceed the host's cores; STM correctness must
// be preemption-tolerant.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "stm/factory.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace votm::stm {
namespace {

class StmConcurrent : public ::testing::TestWithParam<Algo> {
 protected:
  void SetUp() override { engine_ = make_engine(GetParam()); }

  // Runs `body(tid, tx)` on `threads` threads after a common start line.
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

  std::unique_ptr<TxEngine> engine_;
};

TEST_P(StmConcurrent, NoLostCounterUpdates) {
  constexpr unsigned kThreads = 8;
  constexpr int kIncrements = 2000;
  Word counter = 0;
  run_threads(kThreads, [&](unsigned, TxThread& tx) {
    for (int i = 0; i < kIncrements; ++i) {
      atomically(*engine_, tx, [&](TxThread& t) {
        engine_->write(t, &counter, engine_->read(t, &counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, static_cast<Word>(kThreads) * kIncrements);
}

TEST_P(StmConcurrent, BankTransferConservation) {
  constexpr unsigned kThreads = 6;
  constexpr int kAccounts = 32;
  constexpr int kTransfers = 3000;
  constexpr Word kInitial = 1000;
  std::vector<Word> accounts(kAccounts, kInitial);

  run_threads(kThreads, [&](unsigned tid, TxThread& tx) {
    Xoshiro256 rng(tid + 1);
    for (int i = 0; i < kTransfers; ++i) {
      const auto from = static_cast<std::size_t>(rng.below(kAccounts));
      const auto to = static_cast<std::size_t>(rng.below(kAccounts));
      if (from == to) continue;  // self-transfer would double-apply below
      const Word amount = rng.below(10);
      atomically(*engine_, tx, [&](TxThread& t) {
        const Word f = engine_->read(t, &accounts[from]);
        const Word g = engine_->read(t, &accounts[to]);
        engine_->write(t, &accounts[from], f - amount);
        engine_->write(t, &accounts[to], g + amount);
      });
    }
  });

  Word total = 0;
  for (Word a : accounts) total += a;
  EXPECT_EQ(total, static_cast<Word>(kAccounts) * kInitial);
}

TEST_P(StmConcurrent, SnapshotsAreConsistent) {
  // Writers keep x == y; readers must never observe x != y.
  constexpr unsigned kReaders = 4;
  Word x = 0, y = 0;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inconsistencies{0};

  std::thread writer([&] {
    TxThread tx;
    for (Word v = 1; v <= 4000; ++v) {
      atomically(*engine_, tx, [&](TxThread& t) {
        engine_->write(t, &x, v);
        engine_->write(t, &y, v);
      });
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      TxThread tx;
      while (!stop.load(std::memory_order_relaxed)) {
        Word sx = 0, sy = 0;
        atomically(*engine_, tx, [&](TxThread& t) {
          sx = engine_->read(t, &x);
          sy = engine_->read(t, &y);
        });
        if (sx != sy) inconsistencies.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(inconsistencies.load(), 0u);
}

TEST_P(StmConcurrent, AbortAccountingIsConsistent) {
  if (!engine_->speculative()) GTEST_SKIP() << "CGL never aborts";
  constexpr unsigned kThreads = 8;
  StripedEpochStats stats(kThreads);
  Word hot = 0;
  run_threads(kThreads, [&](unsigned, TxThread& tx) {
    tx.stats = &stats;
    for (int i = 0; i < 500; ++i) {
      atomically(*engine_, tx, [&](TxThread& t) {
        engine_->write(t, &hot, engine_->read(t, &hot) + 1);
      });
    }
  });
  const StatsSnapshot total = stats.fold();
  EXPECT_EQ(hot, kThreads * 500u);
  EXPECT_EQ(total.commits, kThreads * 500u);
  if (total.aborts > 0) {
    EXPECT_GT(total.aborted_cycles, 0u);
  }
}

TEST_P(StmConcurrent, DisjointWritersDoNotInterfere) {
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 256;
  std::vector<Word> data(kThreads * kPerThread, 0);
  run_threads(kThreads, [&](unsigned tid, TxThread& tx) {
    for (int i = 0; i < kPerThread; ++i) {
      atomically(*engine_, tx, [&](TxThread& t) {
        engine_->write(t, &data[tid * kPerThread + i], tid + 1);
      });
    }
  });
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(data[tid * kPerThread + i], static_cast<Word>(tid + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StmConcurrent,
                         ::testing::Values(Algo::kNOrec, Algo::kOrecEagerRedo,
                                           Algo::kTml, Algo::kCgl),
                         [](const auto& info) { return to_string(info.param); });

// Two engine *instances* are fully independent TM systems: transactions on
// different instances never conflict and never touch each other's metadata.
// This is the property VOTM's multi-view mode is built on (paper Sec. II-B
// "each view is essentially an independent TM system").
TEST(StmInstances, NOrecSequenceLocksIndependent) {
  NOrecEngine a, b;
  TxThread tx;
  Word cell_a = 0, cell_b = 0;
  atomically(a, tx, [&](TxThread& t) { a.write(t, &cell_a, 1); });
  EXPECT_EQ(a.sequence(), 2u);
  EXPECT_EQ(b.sequence(), 0u);  // untouched by instance a's commits
  atomically(b, tx, [&](TxThread& t) { b.write(t, &cell_b, 1); });
  EXPECT_EQ(b.sequence(), 2u);
}

TEST(StmInstances, OrecClocksIndependent) {
  OrecEagerRedoEngine a, b;
  TxThread tx;
  Word cell = 0;
  for (int i = 0; i < 3; ++i) {
    atomically(a, tx, [&](TxThread& t) { a.write(t, &cell, 1); });
  }
  EXPECT_EQ(a.clock(), 3u);
  EXPECT_EQ(b.clock(), 0u);
}

}  // namespace
}  // namespace votm::stm
