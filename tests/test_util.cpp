// Unit tests for src/util: RNG determinism and distribution sanity,
// number formatting, running statistics, backoff, barrier, the livelock
// watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "util/backoff.hpp"
#include "util/barrier.hpp"
#include "util/cycles.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stop_token.hpp"
#include "util/watchdog.hpp"

namespace votm {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Xoshiro256 rng(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.chance(10, 100);
  EXPECT_NEAR(hits, 10000, 600);
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(SplitMix, ExpandsSeedsDistinctly) {
  SplitMix64 sm(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(sm.next());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Format, HumanCountMatchesPaperStyle) {
  EXPECT_EQ(human_count(3'200'000.0), "3.20m");
  EXPECT_EQ(human_count(7'010'000.0), "7.01m");
  EXPECT_EQ(human_count(145'000'000'000.0), "145G");
  EXPECT_EQ(human_count(49'800'000'000'000.0), "49.8T");
  EXPECT_EQ(human_count(178.0), "178");
  EXPECT_EQ(human_count(25'200.0), "25.2k");
  EXPECT_EQ(human_count(0.0), "0");
}

TEST(Format, DeltaStyle) {
  EXPECT_EQ(format_delta(std::nan("")), "N/A");
  EXPECT_EQ(format_delta(0.49), "0.49");
  EXPECT_EQ(format_delta(30.7), "30.70");
  EXPECT_EQ(format_delta(0.003), "0.003");
}

TEST(Stats, WelfordMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
}

TEST(Cycles, Monotonic) {
  const auto a = rdcycles();
  const auto b = rdcycles();
  EXPECT_LE(a, b);
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
}

TEST(BackoffTest, PoliciesDoNotHang) {
  for (auto policy : {BackoffPolicy::kNone, BackoffPolicy::kYield,
                      BackoffPolicy::kExponential}) {
    Backoff b(policy);
    for (int i = 0; i < 50; ++i) b.pause();
    b.reset();
    b.pause();
  }
}

TEST(BackoffTest, ExponentialLevelIsClampedPastWordWidth) {
  // Regression: 100+ consecutive pauses used to shift 1ULL past 63 bits
  // (UB, and on the escape the window wrapped to tiny values). The level
  // must clamp so deep retry streaks keep the capped maximum window.
  Backoff b(BackoffPolicy::kExponential);
  for (int i = 0; i < 200; ++i) b.pause();
  b.reset();
}

TEST(BackoffTest, AgedPauseBoundedAtAllWeights) {
  Backoff b(BackoffPolicy::kNone);  // aging applies regardless of policy
  // Degenerate weights (0, tiny, huge) and deep levels must all clamp to
  // the bounded window rather than hanging or shifting past the word.
  for (const std::uint64_t weight :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    for (unsigned level : {0u, 1u, 8u, 200u}) {
      b.pause_aged(weight, level);
    }
  }
}

TEST(BarrierTest, ReleasesAllParties) {
  constexpr unsigned kThreads = 8;
  StartBarrier barrier(kThreads);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      after.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(before.load(), static_cast<int>(kThreads));
  EXPECT_EQ(after.load(), static_cast<int>(kThreads));
}

TEST(BarrierTest, Reusable) {
  StartBarrier barrier(2);
  std::thread t([&] {
    barrier.arrive_and_wait();
    barrier.arrive_and_wait();
  });
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  t.join();
}

TEST(BarrierTest, MultiPhaseReuseElectsOneCoordinatorPerPhase) {
  // Back-to-back generations with no pause between them: a thread
  // descheduled across the wake-up must not be trapped by the next phase
  // re-arming the barrier, and exactly one arriver per phase gets `true`.
  constexpr unsigned kThreads = 4;
  constexpr int kPhases = 200;
  StartBarrier barrier(kThreads);
  std::atomic<int> coordinators{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        if (barrier.arrive_and_wait()) coordinators.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(coordinators.load(), kPhases);
  EXPECT_EQ(barrier.generation(), static_cast<std::size_t>(kPhases));
}

TEST(BarrierTest, GenerationCountsCompletedPhases) {
  StartBarrier barrier(1);  // degenerate: every arrival completes a phase
  EXPECT_EQ(barrier.generation(), 0u);
  EXPECT_TRUE(barrier.arrive_and_wait());
  EXPECT_TRUE(barrier.arrive_and_wait());
  EXPECT_EQ(barrier.generation(), 2u);
  EXPECT_EQ(barrier.parties(), 1u);
}

TEST(WatchdogTest, RaisesAfterConsecutiveZeroCommitWindows) {
  // Synthetic livelock: aborts climb every sample, commits never move.
  std::atomic<std::uint64_t> aborts{0};
  std::atomic<std::uint64_t> alarm_seen{0};
  WatchdogDiagnostic last;
  std::mutex last_mu;
  LivelockWatchdog::Options opt;
  opt.period = std::chrono::milliseconds(5);
  opt.strikes = 3;
  LivelockWatchdog dog(
      [&] {
        WatchdogSample s;
        s.commits = 7;  // frozen
        s.aborts = aborts.fetch_add(10, std::memory_order_relaxed) + 10;
        s.consecutive_abort_hwm = 42;
        s.quota = 4;
        s.admitted = 4;
        return s;
      },
      [&](const WatchdogDiagnostic& d) {
        std::lock_guard<std::mutex> lk(last_mu);
        last = d;
        alarm_seen.fetch_add(1, std::memory_order_release);
      },
      opt);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (alarm_seen.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dog.stop();
  ASSERT_GE(dog.alarms_raised(), 1u) << "no alarm within 10s of livelock";
  std::lock_guard<std::mutex> lk(last_mu);
  EXPECT_EQ(last.window_commits, 0u);
  EXPECT_GE(last.window_aborts, 10u);
  EXPECT_EQ(last.consecutive_abort_hwm, 42u);
  EXPECT_EQ(last.quota, 4u);
  EXPECT_EQ(last.consecutive_bad_windows, 3u);
  EXPECT_NE(last.to_string().find("livelock watchdog"), std::string::npos);
}

TEST(WatchdogTest, StaysQuietUnderProgressAndIdleness) {
  // Progress (commits move) and idleness (nothing moves) are both healthy;
  // a strike needs abort traffic WITH zero commits.
  std::atomic<std::uint64_t> ticks{0};
  LivelockWatchdog::Options opt;
  opt.period = std::chrono::milliseconds(2);
  opt.strikes = 2;
  LivelockWatchdog dog(
      [&] {
        const std::uint64_t n = ticks.fetch_add(1, std::memory_order_relaxed);
        WatchdogSample s;
        // First half: commits and aborts both advance. Second half: idle.
        s.commits = n < 10 ? n : 10;
        s.aborts = n < 10 ? n * 5 : 50;
        return s;
      },
      [&](const WatchdogDiagnostic&) {}, opt);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  dog.stop();
  EXPECT_EQ(dog.alarms_raised(), 0u);
}

TEST(StopTokenTest, ThrowsWhenStopped) {
  StopToken token;
  EXPECT_NO_THROW(token.throw_if_stopped());
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_THROW(token.throw_if_stopped(), StopRequested);
  token.reset();
  EXPECT_FALSE(token.stop_requested());
}

}  // namespace
}  // namespace votm
