// Tests of the transactional containers: single-threaded semantics,
// concurrent invariants across algorithms (parameterized), and interaction
// with the view layer's transactional memory management.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "containers/tx_counter.hpp"
#include "containers/tx_hash_map.hpp"
#include "containers/tx_sorted_list.hpp"
#include "containers/tx_stack.hpp"
#include "containers/tx_var.hpp"
#include "util/rng.hpp"

namespace votm::containers {
namespace {

core::ViewConfig view_config(stm::Algo algo = stm::Algo::kNOrec,
                             unsigned threads = 8) {
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = threads;
  vc.rac = core::RacMode::kAdaptive;
  vc.initial_bytes = 1 << 21;
  return vc;
}

// ---------------- TxVar ------------------------------------------------------

TEST(TxVarTest, GetSetRoundTrip) {
  core::View view(view_config());
  TxVar<stm::Word> w(view, 5);
  TxVar<std::uint32_t> u32(view, 7);
  TxVar<double> d(view, 2.5);
  view.execute([&] {
    EXPECT_EQ(w.get(), 5u);
    EXPECT_EQ(u32.get(), 7u);
    EXPECT_DOUBLE_EQ(d.get(), 2.5);
    w.set(6);
    u32.set(8);
    d.set(3.5);
  });
  EXPECT_EQ(w.get(), 6u);
  EXPECT_EQ(u32.get(), 8u);
  EXPECT_DOUBLE_EQ(d.get(), 3.5);
}

TEST(TxVarTest, UpdateIsAtomicUnderConcurrency) {
  core::View view(view_config());
  TxVar<stm::Word> counter(view, 0);
  constexpr unsigned kThreads = 6;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] { counter.update([](stm::Word v) { return v + 1; }); });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(counter.get(), kThreads * static_cast<stm::Word>(kPerThread));
}

// ---------------- TxCounter --------------------------------------------------

TEST(TxCounterTest, ShardedAddsSumExactly) {
  core::View view(view_config());
  TxCounter counter(view, 8);
  constexpr unsigned kThreads = 6;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] { counter.add(1); });
      }
    });
  }
  for (auto& th : pool) th.join();
  stm::Word total = 0;
  view.execute_read([&] { total = counter.value(); });
  EXPECT_EQ(total, kThreads * static_cast<stm::Word>(kPerThread));
}

TEST(TxCounterTest, ShardingReducesAbortsVersusSingleWord) {
  // Same increment load: one-word TxVar vs sharded TxCounter. The sharded
  // version must produce (weakly) fewer aborts — the design rationale.
  constexpr unsigned kThreads = 6;
  constexpr int kPerThread = 1500;

  auto run = [&](auto&& add_fn, core::View& view) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          view.execute([&] {
            add_fn();
            std::this_thread::yield();  // widen the conflict window
          });
        }
      });
    }
    for (auto& th : pool) th.join();
    return view.stats().aborts;
  };

  core::View hot_view(view_config(stm::Algo::kNOrec));
  TxVar<stm::Word> hot(hot_view, 0);
  const auto hot_aborts =
      run([&] { hot.update([](stm::Word v) { return v + 1; }); }, hot_view);

  core::View sharded_view(view_config(stm::Algo::kNOrec));
  TxCounter sharded(sharded_view, 16);
  const auto sharded_aborts = run([&] { sharded.add(1); }, sharded_view);

  EXPECT_LE(sharded_aborts, hot_aborts);
}

// ---------------- TxHashMap --------------------------------------------------

TEST(TxHashMapTest, PutGetEraseSemantics) {
  core::View view(view_config());
  TxHashMap map(view, 16);
  view.execute([&] {
    EXPECT_TRUE(map.put(1, 100));
    EXPECT_TRUE(map.put(2, 200));
    EXPECT_FALSE(map.put(1, 101));  // update, not insert
    stm::Word v = 0;
    EXPECT_TRUE(map.get(1, &v));
    EXPECT_EQ(v, 101u);
    EXPECT_TRUE(map.get(2, &v));
    EXPECT_EQ(v, 200u);
    EXPECT_FALSE(map.get(3, &v));
    EXPECT_EQ(map.size(), 2u);
    EXPECT_TRUE(map.erase(1));
    EXPECT_FALSE(map.erase(1));
    EXPECT_FALSE(map.contains(1));
    EXPECT_EQ(map.size(), 1u);
  });
}

TEST(TxHashMapTest, ChainsSurviveCollisions) {
  core::View view(view_config());
  TxHashMap map(view, 2);  // force chaining
  constexpr stm::Word kKeys = 200;
  view.execute([&] {
    for (stm::Word k = 1; k <= kKeys; ++k) EXPECT_TRUE(map.put(k, k * 10));
  });
  view.execute_read([&] {
    for (stm::Word k = 1; k <= kKeys; ++k) {
      stm::Word v = 0;
      ASSERT_TRUE(map.get(k, &v)) << k;
      EXPECT_EQ(v, k * 10);
    }
    EXPECT_EQ(map.size(), kKeys);
  });
  view.execute([&] {
    for (stm::Word k = 1; k <= kKeys; k += 2) EXPECT_TRUE(map.erase(k));
    EXPECT_EQ(map.size(), kKeys / 2);
  });
}

TEST(TxHashMapTest, AbortedInsertLeavesNoTrace) {
  core::View view(view_config());
  TxHashMap map(view, 16);
  const std::size_t before = view.arena().allocated();
  struct Boom {};
  EXPECT_THROW(view.execute([&] {
    map.put(7, 70);
    throw Boom{};
  }),
               Boom);
  view.execute_read([&] { EXPECT_FALSE(map.contains(7)); });
  EXPECT_EQ(view.arena().allocated(), before);  // node allocation undone
}

TEST(TxHashMapTest, ConcurrentDisjointKeyInsertions) {
  core::View view(view_config(stm::Algo::kOrecEagerRedo));
  TxHashMap map(view, 256);
  constexpr unsigned kThreads = 6;
  constexpr stm::Word kPerThread = 300;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (stm::Word i = 0; i < kPerThread; ++i) {
        const stm::Word key = t * 10000 + i + 1;
        view.execute([&] { map.put(key, key); });
      }
    });
  }
  for (auto& th : pool) th.join();
  view.execute_read([&] {
    EXPECT_EQ(map.size(), kThreads * static_cast<std::size_t>(kPerThread));
  });
}

TEST(TxHashMapTest, ConcurrentMixedWorkloadKeepsSizeConsistent) {
  core::View view(view_config());
  TxHashMap map(view, 64);
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> pool;
  std::atomic<long> net{0};  // inserts minus erases that reported success
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      long local = 0;
      for (int i = 0; i < 1500; ++i) {
        const stm::Word key = 1 + rng.below(64);
        if (rng.chance(1, 2)) {
          bool inserted = false;
          view.execute([&] { inserted = map.put(key, key); });
          if (inserted) ++local;
        } else {
          bool erased = false;
          view.execute([&] { erased = map.erase(key); });
          if (erased) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  std::size_t size = 0;
  view.execute_read([&] { size = map.size(); });
  EXPECT_EQ(static_cast<long>(size), net.load());
}

// ---------------- TxStack ----------------------------------------------------

TEST(TxStackTest, LifoOrder) {
  core::View view(view_config());
  TxStack stack(view);
  view.execute([&] {
    EXPECT_TRUE(stack.empty());
    for (stm::Word v = 1; v <= 5; ++v) stack.push(v);
    EXPECT_EQ(stack.size(), 5u);
  });
  view.execute([&] {
    for (stm::Word v = 5; v >= 1; --v) {
      stm::Word out = 0;
      EXPECT_TRUE(stack.pop(&out));
      EXPECT_EQ(out, v);
    }
    stm::Word out;
    EXPECT_FALSE(stack.pop(&out));
  });
}

TEST(TxStackTest, ConcurrentPushPopConservesElements) {
  core::View view(view_config());
  TxStack stack(view);
  constexpr unsigned kThreads = 4;
  constexpr stm::Word kPerThread = 500;
  std::vector<std::vector<stm::Word>> popped(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread pushes its own tagged values, then drains some.
      for (stm::Word i = 0; i < kPerThread; ++i) {
        view.execute([&] { stack.push((t + 1) * 100000 + i); });
      }
      for (stm::Word i = 0; i < kPerThread / 2; ++i) {
        stm::Word out = 0;
        bool ok = false;
        view.execute([&] { ok = stack.pop(&out); });
        if (ok) popped[t].push_back(out);
      }
    });
  }
  for (auto& th : pool) th.join();

  std::size_t remaining = 0;
  view.execute_read([&] { remaining = stack.size(); });
  std::size_t drained = 0;
  std::set<stm::Word> seen;
  for (const auto& vec : popped) {
    drained += vec.size();
    for (stm::Word v : vec) EXPECT_TRUE(seen.insert(v).second) << "dup " << v;
  }
  EXPECT_EQ(remaining + drained, kThreads * static_cast<std::size_t>(kPerThread));
}

// ---------------- TxSortedList -----------------------------------------------

TEST(TxSortedListTest, InsertKeepsOrder) {
  core::View view(view_config());
  TxSortedList list(view);
  view.execute([&] {
    for (stm::Word v : {5u, 1u, 9u, 3u, 7u, 3u}) list.insert(v);
    EXPECT_TRUE(list.is_sorted());
    EXPECT_EQ(list.size(), 6u);
    EXPECT_TRUE(list.contains(3));
    EXPECT_FALSE(list.contains(4));
  });
}

TEST(TxSortedListTest, EraseRemovesSingleInstance) {
  core::View view(view_config());
  TxSortedList list(view);
  view.execute([&] {
    list.insert(2);
    list.insert(2);
    list.insert(4);
    EXPECT_TRUE(list.erase(2));
    EXPECT_TRUE(list.contains(2));  // one instance left
    EXPECT_TRUE(list.erase(2));
    EXPECT_FALSE(list.contains(2));
    EXPECT_FALSE(list.erase(99));
    EXPECT_EQ(list.size(), 1u);
  });
}

class SortedListConcurrent : public ::testing::TestWithParam<stm::Algo> {};

TEST_P(SortedListConcurrent, StaysSortedWithExactCount) {
  core::View view(view_config(GetParam()));
  TxSortedList list(view);
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 17);
      for (int i = 0; i < kPerThread; ++i) {
        const stm::Word v = rng.below(1000);
        view.execute([&] { list.insert(v); });
      }
    });
  }
  for (auto& th : pool) th.join();
  view.execute_read([&] {
    EXPECT_TRUE(list.is_sorted());
    EXPECT_EQ(list.size(), kThreads * static_cast<std::size_t>(kPerThread));
  });
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SortedListConcurrent,
                         ::testing::Values(stm::Algo::kNOrec,
                                           stm::Algo::kOrecEagerRedo,
                                           stm::Algo::kTml),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace votm::containers
