// VersionClock (stm/clock.hpp): policy semantics, quiescence slots, the
// engines under GV1/GV5, read-only propagation from the containers, and
// votm-check campaigns over every policy x orec engine.
//
// The unit/stress/container sections run in every configuration; the
// exploration section needs the check harness (-DVOTM_SCHED_POINTS=ON, the
// default).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "containers/tx_counter.hpp"
#include "containers/tx_hash_map.hpp"
#include "containers/tx_sorted_list.hpp"
#include "containers/tx_stack.hpp"
#include "containers/tx_var.hpp"
#include "core/thread_ctx.hpp"
#include "core/view.hpp"
#include "stm/clock.hpp"
#include "stm/factory.hpp"
#include "stm/orec_engine.hpp"
#include "util/thread_ordinal.hpp"

namespace votm {
namespace {

using stm::ClockPolicy;
using stm::VersionClock;

constexpr ClockPolicy kPolicies[] = {
    ClockPolicy::kGv1,
    ClockPolicy::kGv5,
};

TEST(ClockPolicy, NamesRoundTrip) {
  for (ClockPolicy p : kPolicies) {
    ClockPolicy parsed{};
    ASSERT_TRUE(stm::clock_policy_from_string(stm::to_string(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  ClockPolicy parsed{};
  EXPECT_TRUE(stm::clock_policy_from_string("GV5", &parsed));
  EXPECT_EQ(parsed, ClockPolicy::kGv5);
  EXPECT_FALSE(stm::clock_policy_from_string("gv2", &parsed));
}

TEST(VersionClockUnit, Gv1TicketsAreDenseAndSkipWhenAdjacent) {
  VersionClock clock(ClockPolicy::kGv1);
  const auto t1 = clock.tick(0);
  EXPECT_EQ(t1.end_time, 1u);
  EXPECT_FALSE(t1.need_validation);  // end == start + 1: nothing slipped in
  EXPECT_EQ(clock.read(), 1u);
  const auto t2 = clock.tick(0);  // stale start: someone (t1) committed
  EXPECT_EQ(t2.end_time, 2u);
  EXPECT_TRUE(t2.need_validation);
}

TEST(VersionClockUnit, Gv5TicksWithoutGlobalTraffic) {
  VersionClock clock(ClockPolicy::kGv5);
  const auto t1 = clock.tick(0);
  EXPECT_EQ(t1.end_time, 1u);
  EXPECT_TRUE(t1.need_validation);  // GV5 can never prove quiescence
  EXPECT_EQ(clock.read(), 0u);      // global untouched
  clock.note_commit(t1.end_time);
  // The own-slot cache keeps this thread's timestamps strictly increasing
  // even though the global clock never moved.
  const auto t2 = clock.tick(0);
  EXPECT_EQ(t2.end_time, 2u);
  EXPECT_EQ(clock.read(), 0u);
}

TEST(VersionClockUnit, Gv5ExtensionPropagatesFutureTimestamps) {
  VersionClock clock(ClockPolicy::kGv5);
  const auto t = clock.tick(0);
  clock.note_commit(t.end_time);
  // A reader that met version t.end_time extends: the bound must cover the
  // observed version, and the global clock must be pushed up to it so
  // later snapshots inherit the happens-after edge.
  const std::uint64_t bound = clock.extension_bound(t.end_time);
  EXPECT_GE(bound, t.end_time);
  EXPECT_GE(clock.read(), t.end_time);
}

TEST(VersionClockUnit, QuiescenceSlotsPublishMonotonically) {
  VersionClock clock(ClockPolicy::kGv1);
  EXPECT_EQ(clock.quiescence_horizon(), 0u);  // nobody published yet
  clock.note_commit(7);
  EXPECT_EQ(clock.last_commit(thread_ordinal()), 7u);
  clock.note_commit(3);  // late smaller publish must not regress the slot
  EXPECT_EQ(clock.last_commit(thread_ordinal()), 7u);
  clock.note_commit(9);
  EXPECT_EQ(clock.last_commit(thread_ordinal()), 9u);
  EXPECT_EQ(clock.quiescence_horizon(), 9u);

  // A second thread publishing a smaller timestamp pulls the horizon down
  // (unless it aliases this thread's slot, which keeps the conservative
  // direction anyway).
  std::thread peer([&] { clock.note_commit(5); });
  peer.join();
  EXPECT_LE(clock.quiescence_horizon(), 9u);
  EXPECT_GE(clock.quiescence_horizon(), 5u);
}

// Writers keep word pairs equal while read-only transactions assert the
// pair is never torn — on real threads, under every policy and orec
// engine. This is the hardware-interleaving complement of the votm-check
// sweeps below, and the adversarial case for GV5's future timestamps
// (reader snapshots lag the writers' commit stamps until extension).
void run_pair_stress(stm::Algo algo, ClockPolicy policy) {
  stm::EngineConfig cfg;
  cfg.clock_policy = policy;
  auto engine = stm::make_engine(algo, cfg);

  constexpr unsigned kWriters = 2;
  constexpr unsigned kReaders = 2;
  constexpr unsigned kTxs = 1500;
  constexpr unsigned kPairs = 8;
  std::vector<stm::Word> data(kPairs * 2, 0);
  std::atomic<std::uint64_t> torn{0};

  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      stm::TxThread tx;
      for (unsigned j = 0; j < kTxs; ++j) {
        const unsigned p = (w + j) % kPairs;
        stm::atomically(*engine, tx, [&](stm::TxThread& t) {
          const stm::Word v = engine->read(t, &data[2 * p]) + 1;
          engine->write(t, &data[2 * p], v);
          engine->write(t, &data[2 * p + 1], v);
        });
      }
    });
  }
  for (unsigned r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      stm::TxThread tx;
      tx.read_only = true;
      for (unsigned j = 0; j < kTxs; ++j) {
        const unsigned p = (r + j) % kPairs;
        stm::Word a = 0;
        stm::Word b = 0;
        stm::atomically(*engine, tx, [&](stm::TxThread& t) {
          a = engine->read(t, &data[2 * p]);
          b = engine->read(t, &data[2 * p + 1]);
        });
        if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u)
      << stm::to_string(algo) << "/" << stm::to_string(policy);
  stm::Word total = 0;
  for (unsigned p = 0; p < kPairs; ++p) {
    EXPECT_EQ(data[2 * p], data[2 * p + 1]) << "pair " << p;
    total += data[2 * p];
  }
  EXPECT_EQ(total, stm::Word{kWriters} * kTxs);
}

TEST(ClockStress, PairSnapshotsHoldAcrossPoliciesAndEngines) {
  for (ClockPolicy policy : kPolicies) {
    run_pair_stress(stm::Algo::kOrecEagerRedo, policy);
  }
}

TEST(ClockStress, ClockAdvancesMonotonicallyUnderCommits) {
  stm::OrecEagerRedoEngine engine(stm::OrecTable::kDefaultSize,
                                  ClockPolicy::kGv5);
  constexpr unsigned kThreads = 3;
  constexpr unsigned kTxs = 1000;
  std::vector<stm::Word> slots(kThreads, 0);
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      stm::TxThread tx;
      std::uint64_t last = engine.clock();
      for (unsigned j = 0; j < kTxs; ++j) {
        stm::atomically(engine, tx, [&](stm::TxThread& t) {
          engine.write(t, &slots[i], engine.read(t, &slots[i]) + 1);
        });
        const std::uint64_t now = engine.clock();
        if (now < last) regressions.fetch_add(1, std::memory_order_relaxed);
        last = now;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(regressions.load(), 0u);
  for (unsigned i = 0; i < kThreads; ++i) EXPECT_EQ(slots[i], kTxs);
  EXPECT_GE(engine.version_clock().quiescence_horizon(), 1u);
}

// --- read-only propagation from the containers ----------------------------

TEST(ContainerReadOnly, ReadsOutsideTxRunAsReadOnlyTransactions) {
  core::ViewConfig cfg;
  cfg.algo = stm::Algo::kOrecEagerRedo;
  core::View view(cfg);
  containers::TxHashMap map(view, 16);
  containers::TxVar<stm::Word> var(view, 41);
  containers::TxCounter counter(view);
  containers::TxStack stack(view);
  containers::TxSortedList list(view);
  view.execute([&] {
    map.put(1, 10);
    map.put(2, 20);
    var.set(42);
    counter.add(5);
    stack.push(7);
    list.insert(3);
    list.insert(9);
  });

  // Outside any transaction, a container read must run inside its own
  // read-only transaction: tx.read_only observed from within the read.
  bool saw_read_only_tx = false;
  std::size_t entries = 0;
  map.for_each([&](stm::Word, stm::Word) {
    const stm::TxThread& tx = core::thread_ctx().tx;
    saw_read_only_tx = tx.in_tx && tx.read_only;
    ++entries;
  });
  EXPECT_TRUE(saw_read_only_tx);
  EXPECT_EQ(entries, 2u);

  stm::Word v = 0;
  EXPECT_TRUE(map.get(1, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(var.get(), 42u);
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_FALSE(stack.empty());
  EXPECT_EQ(stack.size(), 1u);
  EXPECT_TRUE(list.contains(9));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.is_sorted());

  // Inside a writer transaction the same reads stay part of it: no nested
  // transaction, no read-only flag.
  view.execute([&] {
    const stm::TxThread& tx = core::thread_ctx().tx;
    EXPECT_TRUE(tx.in_tx);
    EXPECT_FALSE(tx.read_only);
    EXPECT_TRUE(map.contains(2));
    EXPECT_EQ(var.get(), 42u);
    EXPECT_FALSE(tx.read_only);  // unchanged by the container read
    map.put(3, 30);
  });
  EXPECT_EQ(map.size(), 3u);
}

}  // namespace
}  // namespace votm

// --- votm-check: exploration + fault campaigns (harness builds only) -------

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <cstdlib>

#include "check/explore.hpp"
#include "check/scenarios.hpp"

namespace votm::check {
namespace {

using stm::ClockPolicy;

constexpr ClockPolicy kPolicies[] = {
    ClockPolicy::kGv1,
    ClockPolicy::kGv5,
};

TEST(ClockPolicyWalks, OpacityHoldsAcrossPolicies) {
  for (ClockPolicy policy : kPolicies) {
    StmRandomConfig cfg;
    cfg.algo = stm::Algo::kOrecEagerRedo;
    cfg.clock_policy = policy;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 25, 0xC10C);
    EXPECT_TRUE(report.clean()) << report.repro;
    EXPECT_EQ(report.runs, 25u);
  }
}

TEST(ClockPolicyWalks, SnapshotConsistencyHoldsAcrossPolicies) {
  for (ClockPolicy policy : kPolicies) {
    StmSnapshotConfig cfg;
    cfg.algo = stm::Algo::kOrecEagerRedo;
    cfg.clock_policy = policy;
    StmSnapshotScenario scenario(cfg);
    const auto report = explore_random(scenario, 25, 0x5EED);
    EXPECT_TRUE(report.clean()) << report.repro;
  }
}

// Heavy campaign (VOTM_CHECK_HEAVY=1 ctest -R Heavy): every clock policy on
// the orec engine under a 10k+-schedule random walk budget.
TEST(Heavy, ClockPolicyMatrixCampaign) {
  if (std::getenv("VOTM_CHECK_HEAVY") == nullptr) {
    GTEST_SKIP() << "set VOTM_CHECK_HEAVY=1 to run the clock-policy campaign";
  }
  for (ClockPolicy policy : kPolicies) {
    StmRandomConfig cfg;
    cfg.algo = stm::Algo::kOrecEagerRedo;
    cfg.clock_policy = policy;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 1200, 0xB16);
    EXPECT_TRUE(report.clean()) << report.repro;

    StmSnapshotConfig snap;
    snap.algo = stm::Algo::kOrecEagerRedo;
    snap.clock_policy = policy;
    StmSnapshotScenario snap_scenario(snap);
    const auto snap_report = explore_random(snap_scenario, 400, 0xB19);
    EXPECT_TRUE(snap_report.clean()) << snap_report.repro;
  }
}

}  // namespace
}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
