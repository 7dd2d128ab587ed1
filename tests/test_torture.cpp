// Chaos torture smoke (ctest -L torture-smoke).
//
// A short in-process shake of everything this PR's robustness layer
// claims: real threads hammer one view per phase with a random mix of
// plain increments, transactional alloc+free churn (limbo pressure) and
// randomly-budgeted run_for calls (deadlines expiring at entry, mid-body
// and never), while a mutator thread changes the admission quota mid-run
// and — when the fault injector is compiled in — seeded windows of
// kCmWaitTimeout, kCmWaitLostWakeup and kLimboWatermark fire underneath.
// Each phase pins a different engine x clock-policy x contention-mode x
// mvcc corner.
//
// The assertions are the overload contract, not a throughput bar:
//   * no wedge — every thread joins (a hang fails via the ctest timeout),
//     with a LivelockWatchdog sampling View::health() throughout;
//   * no leak — after one forced reclaim the limbo list is empty,
//     retired == reclaimed, and the arena is back at its baseline;
//   * conservation — the view's commit/abort totals match the observed
//     body invocations, with slack bounded by the deadline outcomes
//     (a begin-time expiry aborts before the body ever runs);
//   * clean shutdown — admission ledger drained, serial token free.
// The hours-long configurable version of this harness is bench/torture;
// this is its seconds-long ctest tier (also run under ASan/TSan smoke).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/fault.hpp"
#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/abort.hpp"
#include "stm/factory.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "util/watchdog.hpp"

namespace votm {
namespace {

using namespace std::chrono_literals;

struct TorturePhase {
  stm::Algo algo;
  stm::ClockPolicy clock;
  stm::ContentionMode mode;
  bool mvcc;
};

constexpr TorturePhase kPhases[] = {
    {stm::Algo::kNOrec, stm::ClockPolicy::kGv1,
     stm::ContentionMode::kAbortRetry, false},
    {stm::Algo::kOrecEagerRedo, stm::ClockPolicy::kGv5,
     stm::ContentionMode::kWaitTimeout, false},
    {stm::Algo::kOrecLazy, stm::ClockPolicy::kGv5,
     stm::ContentionMode::kWaitTimeout, true},
    {stm::Algo::kOrecEagerUndo, stm::ClockPolicy::kGv5,
     stm::ContentionMode::kWaitTimeout, false},
    {stm::Algo::kTml, stm::ClockPolicy::kGv1,
     stm::ContentionMode::kAbortRetry, false},
};

void spin_for(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

void run_phase(const TorturePhase& p, unsigned phase_index,
               std::chrono::milliseconds duration) {
  constexpr unsigned kWorkers = 4;
  core::ViewConfig vc;
  vc.algo = p.algo;
  vc.max_threads = kWorkers;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = kWorkers;
  vc.initial_bytes = 1 << 18;
  vc.engine.clock_policy = p.clock;
  vc.engine.contention_mode = p.mode;
  vc.engine.mvcc = p.mvcc;
  vc.engine.cm_wait_spin_limit = 256;  // short waits: more timeout paths
  vc.reclaim_threshold = 8;
  vc.limbo_soft_watermark = 24;
  vc.limbo_hard_watermark = 48;
  vc.escalation.enabled = true;
  vc.escalation.aging_after = 2;
  vc.escalation.serial_after = 6;
  core::View view(vc);

  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { core::vwrite<stm::Word>(cell, 0); });
  const std::size_t baseline = view.arena().allocated();

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS
  // Seeded chaos: windows of forced wait timeouts, blind waits and
  // spurious hard-watermark trips. No vacuity assertions here — phases on
  // non-orec engines never reach the wait sites, by design.
  check::FaultInjector& inj = check::FaultInjector::instance();
  const std::uint64_t fault_seed = 0x7042u + phase_index;
  inj.arm_seeded(check::FaultSite::kCmWaitTimeout, fault_seed,
                 /*max_skip=*/32, /*fire=*/8);
  inj.arm_seeded(check::FaultSite::kCmWaitLostWakeup, fault_seed ^ 0xFF,
                 /*max_skip=*/64, /*fire=*/8);
  inj.arm_seeded(check::FaultSite::kLimboWatermark, fault_seed ^ 0xF0F0,
                 /*max_skip=*/64, /*fire=*/4);
#endif

  std::atomic<std::uint64_t> body_attempts{0};
  std::atomic<std::uint64_t> commits_observed{0};
  std::atomic<std::uint64_t> increments_committed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> watchdog_alarms{0};

  // The watchdog samples health() for the whole phase: its job here is to
  // prove the sampler stays coherent under fire, not to alarm (transient
  // zero-commit windows under quota churn are legal).
  LivelockWatchdog dog([&] { return view.health(); },
                       [&](const WatchdogDiagnostic&) {
                         watchdog_alarms.fetch_add(1,
                                                   std::memory_order_relaxed);
                       });

  const auto stop_at = std::chrono::steady_clock::now() + duration;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x9E3779B97F4A7C15ULL * (phase_index + 1) + t);
      while (std::chrono::steady_clock::now() < stop_at) {
        const std::uint64_t r = rng.below(100);
        if (r < 55) {
          view.execute([&] {
            body_attempts.fetch_add(1, std::memory_order_relaxed);
            core::vadd<stm::Word>(cell, 1);
          });
          commits_observed.fetch_add(1, std::memory_order_relaxed);
          increments_committed.fetch_add(1, std::memory_order_relaxed);
        } else if (r < 85) {
          // Limbo pressure: a committed transactional free per round.
          view.execute([&] {
            body_attempts.fetch_add(1, std::memory_order_relaxed);
            auto* p =
                static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
            core::vwrite<stm::Word>(p, r);
            view.free(p);
          });
          commits_observed.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Random budget from "already expired" to "comfortably enough";
          // the body sometimes burns time so every expiry point is hit.
          const std::chrono::nanoseconds budget{rng.below(300'000)};
          const std::chrono::nanoseconds burn{rng.below(200'000)};
          try {
            view.run_for(budget, [&] {
              body_attempts.fetch_add(1, std::memory_order_relaxed);
              if (burn.count() != 0) spin_for(burn);
              core::vadd<stm::Word>(cell, 1);
            });
            commits_observed.fetch_add(1, std::memory_order_relaxed);
            increments_committed.fetch_add(1, std::memory_order_relaxed);
          } catch (const stm::DeadlineExceeded&) {
            deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Mid-run quota changes, including drops into lock mode and back.
  std::thread mutator([&] {
    Xoshiro256 rng(0xC0FFEE ^ phase_index);
    while (std::chrono::steady_clock::now() < stop_at) {
      view.set_quota(1 + static_cast<unsigned>(rng.below(kWorkers)));
      std::this_thread::sleep_for(5ms);
    }
    view.set_quota(kWorkers);
  });

  for (auto& w : workers) w.join();
  mutator.join();
  dog.stop();
#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS
  inj.disarm_all();
#endif

  SCOPED_TRACE(std::string(stm::to_string(p.algo)) + "/" +
               stm::to_string(p.clock) + "/" + stm::to_string(p.mode) +
               (p.mvcc ? "+mvcc" : ""));
  // No leak: quiescent, one forced pass drains limbo completely and the
  // arena returns to its post-setup level.
  view.reclaim_garbage();
  const stm::ReclaimStats rs = view.reclaim_stats();
  EXPECT_EQ(rs.depth, 0u);
  EXPECT_EQ(rs.retired, rs.reclaimed);
  EXPECT_EQ(view.arena().allocated(), baseline);
  // Clean shutdown: ledgers drained, token free.
  EXPECT_EQ(view.admission().admitted(), 0u);
  EXPECT_EQ(view.admission().serial_holder(), -1);
  // Conservation: the one init transaction is in the books; expired-at-
  // entry runs contributed neither a body invocation nor an event. A
  // budget that expires between enter()'s pre-admission check and the
  // deadline poll at the end of the engine's begin() records an abort
  // with no body invocation — at most once per DeadlineExceeded outcome
  // (it terminates the run), which bounds the slack exactly.
  const stm::StatsSnapshot st = view.stats();
  EXPECT_EQ(st.commits, commits_observed.load() + 1);
  EXPECT_GE(st.commits + st.aborts, body_attempts.load() + 1);
  EXPECT_LE(st.commits + st.aborts,
            body_attempts.load() + 1 + deadline_exceeded.load());
  EXPECT_EQ(core::vread(cell), increments_committed.load());
  // The watchdog ran (stop() joined its thread); alarms are diagnostic
  // only. Progress is implied by the joins above, but pin the vacuity of
  // the whole phase: at least SOMETHING committed.
  EXPECT_GT(commits_observed.load(), 0u);
}

TEST(TortureSmoke, ChaosAcrossEngineCorners) {
  unsigned i = 0;
  for (const TorturePhase& p : kPhases) {
    run_phase(p, i++, 300ms);
  }
}

}  // namespace
}  // namespace votm
