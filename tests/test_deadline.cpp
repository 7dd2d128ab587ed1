// Bounded-time transactions and graceful overload (ctest -L fault).
//
// Pins the DESIGN.md §19 contracts with real threads and wall clocks:
//   * deadline guarantee per engine — a run past its budget surfaces
//     stm::DeadlineExceeded at the next validation/commit boundary, with
//     nothing held (no admission slot, no serial token, no epoch pin);
//   * the engine-specific exceptions are part of the contract: a TML
//     writer past its lock acquisition is irrevocable and COMMITS, and a
//     CGL / lock-mode execution is a plain critical section that always
//     runs to completion (its only deadline check is at entry);
//   * deadline x escalation — a budget that expires during the serial
//     drain releases the token before throwing (the gate must not wedge);
//   * factory-style sanitization of the new knobs (clamp + FactoryStats);
//   * the run lifecycle — the abort streak and the armed deadline survive
//     conflict retries and are cleared at every terminal edge;
//   * limbo watermark backpressure — soft forces reclaim passes, hard
//     sheds admission quota — and View::health()'s internally consistent
//     snapshot under churn (the TSan hammer).
// The deterministic schedule-exploration side of the same contracts lives
// in DeadlineScenario (votm-check), driven from the bottom of this file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/access.hpp"
#include "core/thread_ctx.hpp"
#include "core/view.hpp"
#include "stm/abort.hpp"
#include "stm/factory.hpp"
#include "util/deadline.hpp"
#include "util/thread_ordinal.hpp"

namespace votm {
namespace {

using namespace std::chrono_literals;

core::ViewConfig base_config(stm::Algo algo, unsigned threads = 2) {
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = threads;
  vc.initial_bytes = 1 << 16;
  return vc;
}

stm::Word* make_cell(core::View& view) {
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { core::vwrite<stm::Word>(cell, 0); });
  return cell;
}

// Burn wall-clock time inside a transaction body without touching view
// memory (so the spin itself cannot conflict).
void spin_for(std::chrono::nanoseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Deadline, ExpiredAtEntryThrowsWithoutResidue) {
  core::View view(base_config(stm::Algo::kNOrec));
  stm::Word* cell = make_cell(view);
  bool body_ran = false;
  EXPECT_THROW(view.run_until(Deadline::after(0ns),
                              [&] {
                                body_ran = true;
                                core::vadd<stm::Word>(cell, 1);
                              }),
               stm::DeadlineExceeded);
  EXPECT_FALSE(body_ran) << "a past-deadline entry must not run the body";
  EXPECT_EQ(view.admission().admitted(), 0u);
  EXPECT_EQ(view.admission().serial_holder(), -1);
  // The gate is not wedged and the budget did not leak into the next run.
  view.execute([&] { core::vadd<stm::Word>(cell, 1); });
  EXPECT_EQ(core::vread(cell), 1u);
}

// Every speculative engine bounds a mid-transaction expiry by its next
// validation/commit step: the body finishes (it is not preempted), then
// the commit-entry poll surfaces DeadlineExceeded instead of publishing.
TEST(Deadline, MidTransactionExpirySurfacesAtCommitBoundary) {
  constexpr stm::Algo kSpeculative[] = {
      stm::Algo::kNOrec,
      stm::Algo::kOrecEagerRedo,
      stm::Algo::kOrecLazy,
      stm::Algo::kOrecEagerUndo,
  };
  for (stm::Algo algo : kSpeculative) {
    SCOPED_TRACE(stm::to_string(algo));
    core::View view(base_config(algo));
    stm::Word* cell = make_cell(view);
    EXPECT_THROW(view.run_for(2ms,
                              [&] {
                                spin_for(20ms);
                                core::vadd<stm::Word>(cell, 1);
                              }),
                 stm::DeadlineExceeded);
    EXPECT_EQ(core::vread(cell), 0u)
        << "a past-deadline transaction must not publish its writes";
    EXPECT_EQ(view.admission().admitted(), 0u);
    view.execute([&] { core::vadd<stm::Word>(cell, 1); });
    EXPECT_EQ(core::vread(cell), 1u);
  }
}

// TML checks the deadline at the last point before the point of no return:
// a first write past the budget aborts BEFORE acquiring the sequence lock…
TEST(Deadline, TmlChecksBeforeIrrevocability) {
  core::View view(base_config(stm::Algo::kTml));
  stm::Word* cell = make_cell(view);
  EXPECT_THROW(view.run_for(2ms,
                            [&] {
                              spin_for(20ms);
                              core::vadd<stm::Word>(cell, 1);  // first write
                            }),
               stm::DeadlineExceeded);
  EXPECT_EQ(core::vread(cell), 0u);
  EXPECT_EQ(view.admission().admitted(), 0u);
}

// …but once the TML writer holds the lock it is irrevocable: a budget that
// expires after the first write must still COMMIT (aborting would require
// rolling back in-place state TML does not log for conflicts).
TEST(Deadline, TmlWriterPastAcquisitionCommits) {
  core::View view(base_config(stm::Algo::kTml));
  stm::Word* cell = make_cell(view);
  view.run_for(2ms, [&] {
    core::vadd<stm::Word>(cell, 1);  // acquires the write lock
    spin_for(20ms);                  // budget expires while irrevocable
  });
  EXPECT_EQ(core::vread(cell), 1u)
      << "an irrevocable TML writer must run to completion";
  EXPECT_EQ(view.admission().admitted(), 0u);
}

// CGL (and RAC's Q == 1 lock mode, which shares the engine shape) is a
// plain critical section: the entry check is its only deadline check, and
// an admitted execution always runs to completion.
TEST(Deadline, CglRunsToCompletionOnceEntered) {
  core::View view(base_config(stm::Algo::kCgl));
  stm::Word* cell = make_cell(view);
  view.run_for(1ms, [&] {
    spin_for(10ms);
    core::vadd<stm::Word>(cell, 1);
  });
  EXPECT_EQ(core::vread(cell), 1u);
  // The entry check still applies: a pre-expired deadline never enters.
  EXPECT_THROW(
      view.run_until(Deadline::after(0ns),
                     [&] { core::vadd<stm::Word>(cell, 1); }),
      stm::DeadlineExceeded);
  EXPECT_EQ(core::vread(cell), 1u);
}

TEST(Deadline, ConfiguredBudgetArmsPerRun) {
  core::ViewConfig vc = base_config(stm::Algo::kOrecEagerRedo);
  vc.tx_deadline_ns = std::chrono::nanoseconds(2ms).count();
  core::View view(vc);
  stm::Word* cell = make_cell(view);
  EXPECT_THROW(view.execute([&] {
    spin_for(20ms);
    core::vadd<stm::Word>(cell, 1);
  }),
               stm::DeadlineExceeded);
  EXPECT_EQ(core::vread(cell), 0u);
  // The budget is per run, not per view: a fast run under the same config
  // commits, and a run_until override can disable it entirely.
  view.execute([&] { core::vadd<stm::Word>(cell, 1); });
  EXPECT_EQ(core::vread(cell), 1u);
  view.run_until(Deadline::none(), [&] {
    spin_for(10ms);  // would blow the configured 2ms budget
    core::vadd<stm::Word>(cell, 1);
  });
  EXPECT_EQ(core::vread(cell), 2u);
}

// Deadline x escalation, the release path: the victim escalates to the
// serial rung while a peer is still admitted, so acquire_serial drains —
// and the budget expires during that drain. The token MUST come back
// before the throw (holding it would close the gate for every peer
// forever), and the view must stay fully usable afterwards.
TEST(Deadline, SerialDrainPastDeadlineReleasesTheToken) {
  core::ViewConfig vc = base_config(stm::Algo::kOrecEagerRedo);
  vc.escalation.enabled = true;
  vc.escalation.aging_after = 1;
  vc.escalation.serial_after = 2;
  core::View view(vc);
  stm::Word* cell = make_cell(view);

  std::atomic<bool> peer_in{false};
  std::atomic<bool> release_peer{false};
  std::thread peer([&] {
    view.execute([&] {
      peer_in.store(true, std::memory_order_release);
      while (!release_peer.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      core::vadd<stm::Word>(cell, 1);
    });
  });
  while (!peer_in.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(300ms);
    release_peer.store(true, std::memory_order_release);
  });

  // Pre-seed the abort streak: the next entry takes the serial rung. The
  // drain blocks on the parked peer (~300ms) while the budget is 30ms.
  core::thread_ctx().tx.consecutive_aborts = vc.escalation.serial_after;
  EXPECT_THROW(
      view.run_until(Deadline::after(30ms),
                     [&] { core::vadd<stm::Word>(cell, 1); }),
      stm::DeadlineExceeded);
  peer.join();
  releaser.join();

  EXPECT_EQ(view.admission().serial_holder(), -1)
      << "the token must be released before DeadlineExceeded propagates";
  EXPECT_EQ(view.admission().admitted(), 0u);
  EXPECT_EQ(core::thread_ctx().tx.consecutive_aborts, 0u)
      << "the budget failure must not leak the escalation streak";
  // Not wedged: both an ordinary and an escalated run still work.
  view.execute([&] { core::vadd<stm::Word>(cell, 1); });
  core::thread_ctx().tx.consecutive_aborts = vc.escalation.serial_after;
  view.execute([&] { core::vadd<stm::Word>(cell, 1); });
  EXPECT_EQ(core::vread(cell), 3u);
  EXPECT_EQ(view.admission().serial_holder(), -1);
}

// ---------------------------------------------------------------------------
// Sanitization of the new robustness knobs (stm/factory.cpp)
// ---------------------------------------------------------------------------

TEST(RobustnessSanitize, NegativeDeadlineDisablesWithACount) {
  const stm::FactoryStats before = stm::factory_stats();
  EXPECT_EQ(stm::sanitized_tx_deadline_ns(-5), 0);
  EXPECT_EQ(stm::factory_stats().deadline_clamps, before.deadline_clamps + 1);
  // Zero (disabled) and positive budgets pass through untouched.
  EXPECT_EQ(stm::sanitized_tx_deadline_ns(0), 0);
  EXPECT_EQ(stm::sanitized_tx_deadline_ns(12345), 12345);
  EXPECT_EQ(stm::factory_stats().deadline_clamps, before.deadline_clamps + 1);
  // View construction repairs the config instead of trusting it.
  core::ViewConfig vc = base_config(stm::Algo::kNOrec);
  vc.tx_deadline_ns = -1;
  core::View view(vc);
  EXPECT_EQ(view.config().tx_deadline_ns, 0);
  EXPECT_EQ(stm::factory_stats().deadline_clamps, before.deadline_clamps + 2);
}

TEST(RobustnessSanitize, CmWaitBudgetClampsIntoRange) {
  const stm::FactoryStats before = stm::factory_stats();
  EXPECT_EQ(stm::sanitized_cm_wait_spin_limit(0), stm::kCmWaitSpinsMin);
  EXPECT_EQ(stm::sanitized_cm_wait_spin_limit(-7), stm::kCmWaitSpinsMin);
  EXPECT_EQ(stm::sanitized_cm_wait_spin_limit(std::int64_t{1} << 40),
            stm::kCmWaitSpinsMax);
  EXPECT_EQ(stm::factory_stats().cm_wait_clamps, before.cm_wait_clamps + 3);
  EXPECT_EQ(stm::sanitized_cm_wait_spin_limit(stm::kCmWaitSpinsDefault),
            stm::kCmWaitSpinsDefault);
  EXPECT_EQ(stm::factory_stats().cm_wait_clamps, before.cm_wait_clamps + 3);
  // Through the factory: a zero budget reaches the engine as the clamped
  // minimum, counted once more.
  stm::EngineConfig ec;
  ec.contention_mode = stm::ContentionMode::kWaitTimeout;
  ec.cm_wait_spin_limit = 0;
  auto engine = stm::make_engine(stm::Algo::kOrecEagerRedo, ec);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(stm::factory_stats().cm_wait_clamps, before.cm_wait_clamps + 4);
}

// The wait-CM bundle make_engine hands the orec engines: the mode passes
// through, the spin budget arrives clamped, and a repaired config still
// yields a working engine on every algorithm (NOrec/TML/CGL accept and
// ignore it), never a throw.
TEST(CmSanitize, RuntimeBundleAndFactoryConstruction) {
  stm::EngineConfig bad;
  bad.contention_mode = stm::ContentionMode::kWaitTimeout;
  bad.cm_wait_spin_limit = -1;
  const stm::CmRuntime rt = stm::sanitized_cm_runtime(bad);
  EXPECT_EQ(rt.mode, stm::ContentionMode::kWaitTimeout);
  EXPECT_EQ(rt.wait_spins, stm::kCmWaitSpinsMin);
  for (stm::Algo algo : {stm::Algo::kOrecEagerRedo, stm::Algo::kOrecLazy,
                         stm::Algo::kOrecEagerUndo, stm::Algo::kNOrec,
                         stm::Algo::kTml, stm::Algo::kCgl}) {
    EXPECT_NE(stm::make_engine(algo, bad), nullptr) << stm::to_string(algo);
  }

  const stm::CmRuntime dflt = stm::sanitized_cm_runtime(stm::EngineConfig{});
  EXPECT_EQ(dflt.mode, stm::ContentionMode::kAbortRetry);
  EXPECT_EQ(dflt.wait_spins, stm::kCmWaitSpinsDefault);
}

TEST(RobustnessSanitize, HardWatermarkBelowSoftIsRaised) {
  const stm::FactoryStats before = stm::factory_stats();
  EXPECT_EQ(stm::sanitized_limbo_hard_watermark(100, 10), 100u);
  EXPECT_EQ(stm::factory_stats().watermark_clamps,
            before.watermark_clamps + 1);
  // Either mark disabled (0), or a sane ordering: passes through.
  EXPECT_EQ(stm::sanitized_limbo_hard_watermark(0, 10), 10u);
  EXPECT_EQ(stm::sanitized_limbo_hard_watermark(100, 0), 0u);
  EXPECT_EQ(stm::sanitized_limbo_hard_watermark(10, 100), 100u);
  EXPECT_EQ(stm::factory_stats().watermark_clamps,
            before.watermark_clamps + 1);
  core::ViewConfig vc = base_config(stm::Algo::kNOrec);
  vc.limbo_soft_watermark = 8;
  vc.limbo_hard_watermark = 2;
  core::View view(vc);
  EXPECT_EQ(view.config().limbo_hard_watermark, 8u);
  EXPECT_EQ(stm::factory_stats().watermark_clamps,
            before.watermark_clamps + 2);
}

// ---------------------------------------------------------------------------
// Limbo watermark backpressure (DESIGN.md §19)
// ---------------------------------------------------------------------------

// One transactional alloc+free: commits exactly one block into limbo.
void retire_one(core::View& view) {
  view.execute([&] {
    auto* p = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
    core::vwrite<stm::Word>(p, 1);
    view.free(p);
  });
}

TEST(Overload, SoftWatermarkForcesReclaimPasses) {
  // Quota 2 keeps the view speculative: at quota 1 (lock mode) frees are
  // applied in place and never reach limbo, so there is nothing to mark.
  core::ViewConfig vc = base_config(stm::Algo::kNOrec, /*threads=*/2);
  vc.reclaim_threshold = 0;  // amortized passes off: only the watermark acts
  vc.limbo_soft_watermark = 4;
  core::View view(vc);
  for (int i = 0; i < 10; ++i) retire_one(view);
  // Single actor thread: no pins are live at any exit, so each forced pass
  // at depth 4 drains completely — exits 4 and 8 pass, leaving depth 2.
  const WatchdogSample h = view.health();
  EXPECT_EQ(h.overload.soft_passes, 2u);
  EXPECT_EQ(h.overload.limbo_depth, 2u);
  EXPECT_EQ(h.overload.limbo_depth_hwm, 4u);
  EXPECT_EQ(h.overload.quota_sheds, 0u) << "no hard mark: quota untouched";
  EXPECT_EQ(view.quota(), 2u);
  EXPECT_FALSE(h.overload.overloaded);
}

TEST(Overload, HardWatermarkShedsQuotaWhenReclaimCannotKeepUp) {
  core::ViewConfig vc = base_config(stm::Algo::kNOrec, /*threads=*/4);
  vc.reclaim_threshold = 0;
  vc.limbo_soft_watermark = 4;
  vc.limbo_hard_watermark = 8;
  core::View view(vc);

  // A parked reader pins the epoch, so forced passes free NOTHING: the
  // depth climbs through soft into hard, which must shed quota.
  std::atomic<bool> peer_in{false};
  std::atomic<bool> release_peer{false};
  stm::Word* cell = make_cell(view);
  std::thread peer([&] {
    view.execute([&] {
      core::vadd<stm::Word>(cell, 1);
      peer_in.store(true, std::memory_order_release);
      while (!release_peer.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  });
  while (!peer_in.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Exactly 8 retirements: depth hits the hard mark once (one shed,
  // 4 -> 2) and stops before a second shed could reach quota 1 — a
  // lock-mode view would block behind the parked peer.
  for (int i = 0; i < 8; ++i) retire_one(view);
  WatchdogSample h = view.health();
  EXPECT_GE(h.overload.soft_passes, 5u);  // exits 4..8 all forced a pass
  EXPECT_EQ(h.overload.quota_sheds, 1u);
  EXPECT_EQ(h.quota, 2u) << "hard watermark must halve the quota toward 1";
  EXPECT_TRUE(h.overload.overloaded);
  EXPECT_EQ(h.overload.limbo_depth, 8u) << "the pin held every block";

  release_peer.store(true, std::memory_order_release);
  peer.join();
  // Degraded, not broken: once the pin lifts, one forced pass drains
  // everything and the books balance.
  view.reclaim_garbage();
  const stm::ReclaimStats rs = view.reclaim_stats();
  EXPECT_EQ(rs.depth, 0u);
  EXPECT_EQ(rs.retired, rs.reclaimed);
  EXPECT_EQ(view.admission().admitted(), 0u);
}

// ---------------------------------------------------------------------------
// View::health() consistency under churn (the TSan hammer)
// ---------------------------------------------------------------------------

TEST(HealthConsistency, SnapshotStaysCoherentUnderQuotaChurn) {
  core::ViewConfig vc = base_config(stm::Algo::kOrecEagerRedo, /*threads=*/4);
  vc.reclaim_threshold = 4;
  vc.limbo_soft_watermark = 32;
  vc.limbo_hard_watermark = 64;
  core::View view(vc);
  stm::Word* cell = make_cell(view);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        view.execute([&] { core::vadd<stm::Word>(cell, 1); });
        retire_one(view);
      }
    });
  }
  std::thread mutator([&] {
    unsigned q = 1;
    while (!stop.load(std::memory_order_acquire)) {
      view.set_quota(1 + (q++ % 4));
      std::this_thread::sleep_for(1ms);
    }
    view.set_quota(4);
  });

  std::uint64_t prev_commits = 0;
  const auto until = std::chrono::steady_clock::now() + 300ms;
  while (std::chrono::steady_clock::now() < until) {
    const WatchdogSample h = view.health();
    // The (quota, admitted, serial_holder) triple comes from one packed
    // snapshot: each field must be individually sane, and the monotonic
    // counters must never run backwards.
    ASSERT_GE(h.quota, 1u);
    ASSERT_LE(h.quota, 4u);
    ASSERT_LE(h.admitted, 4u);
    ASSERT_GE(h.serial_holder, -1);
    ASSERT_GE(h.commits, prev_commits);
    prev_commits = h.commits;
    ASSERT_LE(h.overload.soft_watermark, h.overload.hard_watermark);
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  mutator.join();
  EXPECT_EQ(view.admission().admitted(), 0u);
  EXPECT_EQ(view.admission().serial_holder(), -1);
}

// The run lifecycle (TxThread::end_run): the abort streak and the armed
// deadline belong to ONE run — the transaction and its conflict retries.
// Every terminal edge (commit in View::exit, a user exception in
// abort_for_exception, a deadline refusing entry) must clear both, or the
// thread's next, unrelated run would start with a borrowed streak (the
// escalation ladder counts it) and a stale budget.
TEST(RunLifecycle, CommitEndsTheRunOnExit) {
  core::View view(base_config(stm::Algo::kOrecEagerRedo));
  stm::Word* cell = make_cell(view);
  stm::TxThread& tx = core::thread_ctx().tx;
  bool armed = false;
  view.run_for(1h, [&] {
    armed = tx.deadline.active();
    tx.consecutive_aborts = 7;  // as if earlier attempts of this run aborted
    core::vadd<stm::Word>(cell, 1);
  });
  EXPECT_TRUE(armed);
  EXPECT_EQ(tx.consecutive_aborts, 0u) << "View::exit must end the run";
  EXPECT_FALSE(tx.deadline.active());
}

TEST(RunLifecycle, UserExceptionEndsTheRun) {
  core::View view(base_config(stm::Algo::kOrecEagerRedo));
  stm::Word* cell = make_cell(view);
  stm::TxThread& tx = core::thread_ctx().tx;
  struct Boom {};
  EXPECT_THROW(view.run_for(1h,
                            [&] {
                              tx.consecutive_aborts = 5;
                              core::vwrite<stm::Word>(cell, 2);
                              throw Boom{};
                            }),
               Boom);
  EXPECT_EQ(tx.consecutive_aborts, 0u)
      << "abort_for_exception must not leak the streak into the next run";
  EXPECT_FALSE(tx.deadline.active());
  EXPECT_EQ(core::vread(cell), 0u);
}

TEST(RunLifecycle, RefusedDeadlineEntryEndsTheRun) {
  core::View view(base_config(stm::Algo::kOrecEagerRedo));
  stm::TxThread& tx = core::thread_ctx().tx;
  tx.consecutive_aborts = 9;
  bool ran = false;
  EXPECT_THROW(view.run_until(Deadline::after(0ns), [&] { ran = true; }),
               stm::DeadlineExceeded);
  EXPECT_FALSE(ran);
  EXPECT_EQ(tx.consecutive_aborts, 0u)
      << "a budget failure must not arm the thread's next unrelated run";
  EXPECT_FALSE(tx.deadline.active());
}

}  // namespace
}  // namespace votm

// ---------------------------------------------------------------------------
// Deterministic schedule exploration (votm-check)
// ---------------------------------------------------------------------------

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include "check/explore.hpp"
#include "check/fault.hpp"
#include "check/scenarios.hpp"

namespace votm::check {
namespace {

// The three-case deadline program (expired entry / escalate-to-serial /
// deadline-outranks-escalation) must hold on every engine under every
// explored schedule — including CGL, whose serial rung degenerates to the
// plain critical section.
TEST(DeadlineSchedules, ProgramHoldsAcrossEnginesAndSchedules) {
  constexpr stm::Algo kAll[] = {
      stm::Algo::kNOrec,         stm::Algo::kTml,
      stm::Algo::kOrecEagerRedo, stm::Algo::kOrecLazy,
      stm::Algo::kOrecEagerUndo, stm::Algo::kCgl,
  };
  for (stm::Algo algo : kAll) {
    DeadlineScenarioConfig cfg;
    cfg.algo = algo;
    DeadlineScenario scenario(cfg);
    const auto report = explore_random(scenario, 20, 0xDEAD11);
    EXPECT_TRUE(report.clean())
        << stm::to_string(algo) << " :: " << report.repro;
  }
}

// The streak and the deadline must SURVIVE handle_abort: a single injected
// commit-tail loss forces exactly one retry, which must see the streak the
// first attempt earned and the same armed deadline (the budget covers the
// whole run, not each attempt); the commit must still end the run.
TEST(RunLifecycle, AbortStreakPersistsAcrossConflictRetries) {
  core::View view(votm::base_config(stm::Algo::kOrecEagerRedo));
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  stm::TxThread& tx = core::thread_ctx().tx;
  FaultPlan one;
  one.fire = 1;
  FaultGuard guard(FaultSite::kOrecEagerRedoCommitTail, one);
  unsigned attempts = 0;
  std::uint64_t streak_on_retry = 0;
  Deadline first = Deadline::none();
  Deadline on_retry = Deadline::none();
  view.run_for(std::chrono::hours(1), [&] {
    if (++attempts == 1) {
      first = tx.deadline;
    } else {
      streak_on_retry = tx.consecutive_aborts;
      on_retry = tx.deadline;
    }
    core::vwrite<stm::Word>(cell, attempts);
  });
  ASSERT_EQ(attempts, 2u) << "the injected loss must force one retry";
  EXPECT_EQ(streak_on_retry, 1u)
      << "handle_abort wiped the streak the aborted attempt earned";
  EXPECT_TRUE(first.active());
  EXPECT_EQ(on_retry, first) << "a retry re-armed the run's deadline";
  EXPECT_EQ(tx.consecutive_aborts, 0u) << "commit must still end the run";
  EXPECT_FALSE(tx.deadline.active());
}

}  // namespace
}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
