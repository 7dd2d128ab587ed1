// Stress tests for the admission controller's lock-free fast path. Built
// for TSan: configure with -DVOTM_SANITIZE=thread and run the `stress`
// ctest label.
//
// Invariants checked under churn with a concurrent quota mutator:
//   - the number of threads inside the view never exceeds the quota bound
//     (max_threads here; instantaneous quota can be below the resident
//     count only transiently, by the documented lazy-lowering rule),
//   - a thread admitted in lock mode (observed quota == 1) is alone inside,
//     and no lock-mode holder coexists with a transactional admission,
//   - acquire_serial() returns only once its holder is the sole resident,
//   - raising the quota from 1 blocks until the lock-mode holder drains,
//   - after all workers join, admits == leaves and admitted() == 0.
//
// Violations are counted in atomics and asserted once at the end: gtest
// EXPECT_* is not thread-safe, and a counter keeps the hot loop cheap
// enough to stress the admission word rather than the test harness.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "rac/admission.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"

namespace votm::rac {
namespace {

TEST(AdmissionStress, ChurnKeepsInvariants) {
  constexpr unsigned kThreads = 8;
  constexpr int kCycles = 100000;
  AdmissionController ac(kThreads, kThreads);

  std::atomic<int> inside{0};
  std::atomic<int> lock_holders{0};
  std::atomic<std::uint64_t> admits{0};
  std::atomic<std::uint64_t> leaves{0};
  std::atomic<int> bound_violations{0};
  std::atomic<int> lock_violations{0};
  std::atomic<int> serial_violations{0};
  std::atomic<unsigned> workers_done{0};
  StartBarrier start(kThreads + 1);

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      start.arrive_and_wait();
      for (int i = 0; i < kCycles; ++i) {
        unsigned q = 0;
        if (rng.below(8) == 0) {
          if (!ac.try_admit(&q)) continue;
        } else {
          q = ac.admit();
        }
        // inside is bumped after admit returns and dropped before leave,
        // so inside <= held admissions at every instant; the checks below
        // can under-report overlap but never report one that didn't exist.
        const int now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (now > static_cast<int>(kThreads)) {
          bound_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (q == 1) {
          // Lock mode: admitted at P == 0, and raising from Q = 1 drains
          // first, so nobody else can be inside for our whole stay.
          if (now != 1) lock_violations.fetch_add(1, std::memory_order_relaxed);
          lock_holders.fetch_add(1, std::memory_order_acq_rel);
        } else if (lock_holders.load(std::memory_order_acquire) != 0) {
          lock_violations.fetch_add(1, std::memory_order_relaxed);
        }
        admits.fetch_add(1, std::memory_order_relaxed);
        if (q == 1) lock_holders.fetch_sub(1, std::memory_order_acq_rel);
        inside.fetch_sub(1, std::memory_order_acq_rel);
        leaves.fetch_add(1, std::memory_order_relaxed);
        ac.leave();
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // Quota mutator: cycles lock mode / low / full quota while the workers
  // churn, and periodically takes the serial token to check its drain.
  std::thread mutator([&] {
    const unsigned quotas[] = {1, 2, kThreads, kThreads};
    unsigned k = 0;
    while (workers_done.load(std::memory_order_acquire) < kThreads) {
      ac.set_quota(quotas[k % 4]);
      if (++k % 16 == 0) {
        ac.acquire_serial();
        if (inside.load(std::memory_order_acquire) != 0) {
          serial_violations.fetch_add(1, std::memory_order_relaxed);
        }
        ac.release_serial();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ac.set_quota(kThreads);
  });

  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  mutator.join();

  EXPECT_EQ(bound_violations.load(), 0);
  EXPECT_EQ(lock_violations.load(), 0);
  EXPECT_EQ(serial_violations.load(), 0);
  EXPECT_EQ(admits.load(), leaves.load());
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(AdmissionStress, RaiseFromLockModeBlocksUntilDrain) {
  AdmissionController ac(4, 1);
  ASSERT_EQ(ac.admit(), 1u);
  std::atomic<bool> raised{false};
  std::thread raiser([&] {
    ac.set_quota(4);
    raised.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(raised.load(std::memory_order_acquire));
  ac.leave();
  raiser.join();
  EXPECT_TRUE(raised.load());
  EXPECT_EQ(ac.quota(), 4u);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(AdmissionStress, SerialWaitsForResidents) {
  constexpr unsigned kN = 4;
  AdmissionController ac(kN, kN);
  std::atomic<int> inside{0};
  std::atomic<bool> release{false};
  StartBarrier ready(kN);  // 3 residents + main

  std::vector<std::thread> residents;
  for (unsigned i = 0; i < kN - 1; ++i) {
    residents.emplace_back([&] {
      ac.admit();
      inside.fetch_add(1, std::memory_order_acq_rel);
      ready.arrive_and_wait();
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      inside.fetch_sub(1, std::memory_order_acq_rel);
      ac.leave();
    });
  }
  ready.arrive_and_wait();
  EXPECT_EQ(ac.admitted(), kN - 1);

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    release.store(true, std::memory_order_release);
  });
  ac.acquire_serial();  // must block until every resident has left
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(ac.admitted(), 1u);  // the holder's self-admission only
  EXPECT_FALSE(ac.try_admit());  // the token's closed gate rejects it
  ac.release_serial();
  EXPECT_TRUE(ac.try_admit());
  ac.leave();

  releaser.join();
  for (auto& t : residents) t.join();
}

TEST(AdmissionStress, SetQuotaDuringOpenModeAccountsResidue) {
  // Full quota opens the fence-free gate; residents admitted through it
  // live in per-thread slot ledgers, not in P. Lowering the quota must
  // close the gate and carry those residents over (the RESIDUE protocol):
  // they stay visible in admitted() until they leave, and the ledger must
  // balance back to zero afterwards.
  constexpr unsigned kN = 4;
  AdmissionController ac(kN, kN);
  std::atomic<bool> release{false};
  StartBarrier ready(3);  // 2 residents + main

  std::vector<std::thread> residents;
  for (int i = 0; i < 2; ++i) {
    residents.emplace_back([&] {
      EXPECT_EQ(ac.admit(), kN);
      ready.arrive_and_wait();
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ac.leave();
    });
  }
  ready.arrive_and_wait();
  EXPECT_EQ(ac.admitted(), 2u);

  ac.set_quota(2);  // closes the open gate with both residents inside
  EXPECT_EQ(ac.quota(), 2u);
  EXPECT_EQ(ac.admitted(), 2u);  // residue still accounted
  EXPECT_FALSE(ac.try_admit());  // 2 residents == new quota: full

  release.store(true, std::memory_order_release);
  for (auto& t : residents) t.join();
  EXPECT_EQ(ac.admitted(), 0u);

  unsigned q = 0;
  ASSERT_TRUE(ac.try_admit(&q));  // residue retired: gated path again
  EXPECT_EQ(q, 2u);
  ac.leave();
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(AdmissionStress, NonPowerOfTwoThreadCountChurn) {
  // N = 6 walks the quota chain 6 -> 3 -> 1 (odd halving steps) and lands
  // on quotas that alias under a log2 bucketing; the invariants must hold
  // off the power-of-two grid exactly as on it.
  constexpr unsigned kThreads = 6;
  constexpr int kCycles = 20000;
  AdmissionController ac(kThreads, kThreads);

  std::atomic<int> inside{0};
  std::atomic<int> lock_holders{0};
  std::atomic<int> bound_violations{0};
  std::atomic<int> lock_violations{0};
  std::atomic<unsigned> workers_done{0};
  StartBarrier start(kThreads + 1);

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      start.arrive_and_wait();
      for (int i = 0; i < kCycles; ++i) {
        unsigned q = 0;
        if (rng.below(8) == 0) {
          if (!ac.try_admit(&q)) continue;
        } else {
          q = ac.admit();
        }
        const int now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (now > static_cast<int>(kThreads)) {
          bound_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (q == 1) {
          if (now != 1) lock_violations.fetch_add(1, std::memory_order_relaxed);
          lock_holders.fetch_add(1, std::memory_order_acq_rel);
        } else if (lock_holders.load(std::memory_order_acquire) != 0) {
          lock_violations.fetch_add(1, std::memory_order_relaxed);
        }
        if (q == 1) lock_holders.fetch_sub(1, std::memory_order_acq_rel);
        inside.fetch_sub(1, std::memory_order_acq_rel);
        ac.leave();
      }
      workers_done.fetch_add(1, std::memory_order_release);
    });
  }

  std::thread mutator([&] {
    const unsigned quotas[] = {1, 3, 5, kThreads};
    unsigned k = 0;
    while (workers_done.load(std::memory_order_acquire) < kThreads) {
      ac.set_quota(quotas[k++ % 4]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ac.set_quota(kThreads);
  });

  start.arrive_and_wait();
  for (auto& th : pool) th.join();
  mutator.join();

  EXPECT_EQ(bound_violations.load(), 0);
  EXPECT_EQ(lock_violations.load(), 0);
  EXPECT_EQ(inside.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
}

TEST(AdmissionStress, TryAdmitRacingSerial) {
  // try_admit never blocks, so it races the serial token's gate close and
  // drain head-on: every acquire_serial() return must leave the holder as
  // the only resident, and the closed gate must reject the non-blocking
  // path outright.
  constexpr unsigned kThreads = 4;
  AdmissionController ac(kThreads, kThreads);
  std::atomic<int> inside{0};
  std::atomic<bool> stop{false};
  std::atomic<int> serial_violations{0};
  StartBarrier start(kThreads + 1);

  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_acquire)) {
        if (!ac.try_admit()) continue;
        inside.fetch_add(1, std::memory_order_acq_rel);
        inside.fetch_sub(1, std::memory_order_acq_rel);
        ac.leave();
      }
    });
  }

  start.arrive_and_wait();
  for (int k = 0; k < 200; ++k) {
    ac.acquire_serial();
    if (inside.load(std::memory_order_acquire) != 0 || ac.admitted() != 1) {
      serial_violations.fetch_add(1, std::memory_order_relaxed);
    }
    if (ac.try_admit()) {  // the token's closed gate must refuse
      serial_violations.fetch_add(1, std::memory_order_relaxed);
      ac.leave();
    }
    ac.release_serial();
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  EXPECT_EQ(serial_violations.load(), 0);
  EXPECT_EQ(ac.admitted(), 0u);
}

}  // namespace
}  // namespace votm::rac
