// Unit tests for the RAC layer: the delta(Q) estimator (paper Eq. 5), the
// admission controller's P/Q gate and lock-mode drain protocol, and the
// adaptive halving/doubling policy (Observation 1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "rac/admission.hpp"
#include "rac/delta.hpp"
#include "rac/policy.hpp"
#include "util/barrier.hpp"

namespace votm::rac {
namespace {

// ---------------- delta(Q) -----------------------------------------------

TEST(Delta, MatchesEquationFive) {
  // delta(Q) = aborted / (successful * (Q - 1))
  EXPECT_DOUBLE_EQ(delta_q(100, 50, 2), 2.0);
  EXPECT_DOUBLE_EQ(delta_q(100, 50, 3), 1.0);
  EXPECT_DOUBLE_EQ(delta_q(0, 50, 4), 0.0);
}

TEST(Delta, UndefinedAtQuotaOne) {
  EXPECT_TRUE(std::isnan(delta_q(100, 50, 1)));
  EXPECT_TRUE(std::isnan(delta_q(0, 0, 0)));
}

TEST(Delta, LivelockSignatureIsInfinite) {
  EXPECT_TRUE(std::isinf(delta_q(1000, 0, 4)));
  EXPECT_DOUBLE_EQ(delta_q(0, 0, 4), 0.0);  // nothing happened: no signal
}

TEST(Delta, SnapshotOverload) {
  stm::StatsSnapshot s;
  s.aborted_cycles = 300;
  s.committed_cycles = 100;
  EXPECT_DOUBLE_EQ(delta_q(s, 4), 1.0);
}

// ---------------- AdmissionController ------------------------------------

TEST(Admission, QuotaClampedToValidRange) {
  AdmissionController ac(8, 0);
  EXPECT_EQ(ac.quota(), 1u);
  ac.set_quota(100);
  EXPECT_EQ(ac.quota(), 8u);
  AdmissionController ac2(8, 99);
  EXPECT_EQ(ac2.quota(), 8u);
}

TEST(Admission, AdmitReturnsObservedQuota) {
  AdmissionController ac(4, 3);
  EXPECT_EQ(ac.admit(), 3u);
  EXPECT_EQ(ac.admitted(), 1u);
  ac.leave();
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(Admission, TryAdmitRespectsQuota) {
  AdmissionController ac(8, 2);
  unsigned q = 0;
  EXPECT_TRUE(ac.try_admit(&q));
  EXPECT_EQ(q, 2u);
  EXPECT_TRUE(ac.try_admit());
  EXPECT_FALSE(ac.try_admit());  // P == Q
  ac.leave();
  EXPECT_TRUE(ac.try_admit());
  ac.leave();
  ac.leave();
}

TEST(Admission, ConcurrencyNeverExceedsQuota) {
  constexpr unsigned kThreads = 12;
  constexpr unsigned kQuota = 3;
  constexpr int kRounds = 300;
  AdmissionController ac(kThreads, kQuota);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  StartBarrier barrier(kThreads);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kRounds; ++i) {
        ac.admit();
        const int now = inside.fetch_add(1) + 1;
        int prev = max_inside.load();
        while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {
        }
        inside.fetch_sub(1);
        ac.leave();
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_LE(max_inside.load(), static_cast<int>(kQuota));
  EXPECT_GE(max_inside.load(), 1);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(Admission, BlockedThreadsWakeWhenQuotaRaised) {
  AdmissionController ac(4, 1);
  ac.admit();  // occupy the single slot

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    ac.admit();
    admitted.store(true);
    ac.leave();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(admitted.load());

  // Raising from Q=1 drains first: release our slot from another thread
  // while set_quota waits.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ac.leave();
  });
  ac.set_quota(2);  // returns only after the drain
  releaser.join();
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(Admission, RaiseFromLockModeWaitsForDrain) {
  AdmissionController ac(4, 1);
  ac.admit();
  std::atomic<bool> quota_raised{false};
  std::thread raiser([&] {
    ac.set_quota(4);  // must block until leave()
    quota_raised.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(quota_raised.load());
  ac.leave();
  raiser.join();
  EXPECT_TRUE(quota_raised.load());
  EXPECT_EQ(ac.quota(), 4u);
}

TEST(Admission, LoweringQuotaAppliesImmediately) {
  AdmissionController ac(8, 8);
  ac.admit();
  ac.admit();
  ac.set_quota(1);  // no drain requirement when lowering
  EXPECT_EQ(ac.quota(), 1u);
  EXPECT_FALSE(ac.try_admit());  // P (2) >= Q (1)
  ac.leave();
  ac.leave();
}

// Closing the gate for exclusive use (the serial token; it replaced the
// old pause()/resume() pair) waits for the residents to drain, then
// refuses every admission until it reopens.
TEST(AdmissionPause, PauseWaitsForDrainAndBlocksAdmission) {
  AdmissionController ac(8, 8);
  ac.admit();

  std::atomic<bool> paused{false};
  std::atomic<bool> resume{false};
  std::thread pauser([&] {
    ac.acquire_serial();
    paused.store(true);
    while (!resume.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ac.release_serial();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(paused.load());  // still one thread inside

  ac.leave();
  while (!paused.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(ac.try_admit());  // paused: nobody gets in
  resume.store(true);
  pauser.join();
  EXPECT_TRUE(ac.try_admit());
  ac.leave();
}

// ---------------- AdaptivePolicy ------------------------------------------

TEST(Policy, HalvesOnHighContention) {
  AdaptivePolicy p(16);
  EXPECT_EQ(p.next_quota(16, 30.7), 8u);
  EXPECT_EQ(p.next_quota(8, 3.2), 4u);
  EXPECT_EQ(p.next_quota(2, 2.9), 1u);
}

TEST(Policy, DoublesOnLowContention) {
  AdaptivePolicy p(16);
  EXPECT_EQ(p.next_quota(2, 0.02), 4u);
  EXPECT_EQ(p.next_quota(4, 0.02), 8u);
  EXPECT_EQ(p.next_quota(8, 0.02), 16u);
  EXPECT_EQ(p.next_quota(16, 0.02), 16u);  // capped at N
}

TEST(Policy, LivelockSignalDrivesQuotaDown) {
  AdaptivePolicy p(16);
  unsigned q = 16;
  const double inf = std::numeric_limits<double>::infinity();
  q = p.next_quota(q, inf);
  q = p.next_quota(q, inf);
  q = p.next_quota(q, inf);
  q = p.next_quota(q, inf);
  EXPECT_EQ(q, 1u);
}

TEST(Policy, LockModeIsStickyByDefault) {
  AdaptivePolicy p(16);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(p.next_quota(1, nan), 1u);
  EXPECT_EQ(p.next_quota(1, 0.0), 1u);
}

TEST(Policy, ProbingVariantLeavesLockMode) {
  PolicyConfig cfg;
  cfg.sticky_lock_mode = false;
  AdaptivePolicy p(16, cfg);
  EXPECT_EQ(p.next_quota(1, std::numeric_limits<double>::quiet_NaN()), 2u);
}

TEST(Policy, DampingPreventsOscillation) {
  // The paper's Eigenbench single-view OrecEagerRedo numbers:
  // delta(2) = 0.49 (would double), delta(4) = 3.21 (halves back). The
  // policy must learn that quota 4 is bad and settle at 2.
  AdaptivePolicy p(16);
  unsigned q = 4;
  q = p.next_quota(q, 3.21);  // 4 -> 2, remembers 4 is bad
  EXPECT_EQ(q, 2u);
  q = p.next_quota(q, 0.49);  // would double to 4, damped
  EXPECT_EQ(q, 2u);
  q = p.next_quota(q, 0.49);
  EXPECT_EQ(q, 2u);
}

TEST(Policy, BadLevelMemoryExpires) {
  PolicyConfig cfg;
  cfg.bad_level_memory = 2;
  AdaptivePolicy p(16, cfg);
  unsigned q = p.next_quota(4, 3.0);  // epoch 1: 4 marked bad until epoch 3
  EXPECT_EQ(q, 2u);
  EXPECT_EQ(p.next_quota(2, 0.5), 2u);  // epoch 2: damped
  EXPECT_EQ(p.next_quota(2, 0.5), 4u);  // epoch 3: memory expired, probe again
}

TEST(Policy, NonPowerOfTwoMaxQuotaDoesNotAliasBadLevels) {
  // With N = 6 the halving chain visits 6 and 4, which collide in a
  // floor(log2) bucket. Marking 6 contended must not damp doubling into 4
  // (a different quota), while 6 itself stays damped.
  AdaptivePolicy p(6);
  EXPECT_EQ(p.next_quota(6, 5.0), 3u);  // 6 marked bad
  EXPECT_EQ(p.next_quota(2, 0.5), 4u);  // 4 shares 6's log2 bucket: not damped
  EXPECT_EQ(p.next_quota(3, 0.5), 3u);  // doubling into 6 itself is damped
}

TEST(Policy, NonPowerOfTwoTwelveThreadChain) {
  AdaptivePolicy p(12);
  EXPECT_EQ(p.next_quota(12, 5.0), 6u);  // 12 marked bad
  EXPECT_EQ(p.next_quota(4, 0.5), 8u);   // 8 shares 12's log2 bucket: doubles
  EXPECT_EQ(p.next_quota(6, 0.5), 6u);   // doubling caps at 12, still damped
}

TEST(Policy, StableDeltaNearOneHolds) {
  PolicyConfig cfg;
  AdaptivePolicy p(16, cfg);
  // Exactly at the thresholds nothing moves (halve needs >, double needs <).
  EXPECT_EQ(p.next_quota(8, 1.0), 8u);
}

TEST(Policy, AdaptiveTraceReproducesPaperTableVI) {
  // Single-view Eigenbench with OrecEagerRedo (paper Table III): deltas at
  // Q=16,8,4 are far above 1, delta(2) = 0.49. Adaptive RAC should settle
  // at Q = 2, the value the paper's Table VI reports.
  AdaptivePolicy p(16);
  unsigned q = 16;
  auto delta_at = [](unsigned quota) {
    switch (quota) {
      case 16: return 80.0;   // livelock region
      case 8: return 30.7;
      case 4: return 3.21;
      case 2: return 0.49;
      default: return 0.0;
    }
  };
  for (int epoch = 0; epoch < 12; ++epoch) {
    q = p.next_quota(q, delta_at(q));
  }
  EXPECT_EQ(q, 2u);
}

}  // namespace
}  // namespace votm::rac
