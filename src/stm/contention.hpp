// Wait-based contention management with timeout (DESIGN.md §19).
//
// The paper's engines resolve every conflict with the loser aborting and
// retrying (aggressive CM — what produces the livelock rows RAC then
// arrests). "Why Transactional Memory Should Not Be Obstruction-Free"
// argues the loser is often better off *waiting*: commit-time lock holds
// are short, and an abort throws away the loser's whole read set to dodge
// a microsecond of exclusivity. ContentionMode::kWaitTimeout implements
// that judicious-blocking option for the orec engine:
//
//   * On a write-read or write-write conflict (a foreign-locked orec) the
//     loser parks on the winner's orec — a bounded spin re-checking the
//     packed word — instead of aborting.
//   * Deadlock avoidance (the ordinal rule): a loser that already HOLDS
//     write locks may wait only on an owner of strictly lower rank, where
//     rank is the owner TxThread's address — a process-lifetime total
//     order that needs no dereference (a stale observation of a departed
//     owner compares harmlessly). Any wait-for cycle would need a
//     lock-holder waiting "up" the order, which the rule forbids, so no
//     cycle can close. Lock-free losers (pure readers, a first write) may
//     always wait: they hold nothing anybody else can block on.
//   * Timeout: the wait is bounded by `CmRuntime::wait_spins` iterations
//     and by the transaction's deadline. On timeout the loser falls back
//     to exactly today's abort+backoff path — kAbortRetry is the fallback,
//     not an alternative code shape.
//
// NOrec, TML and CGL take no wait-CM: NOrec conflicts are value-validation
// failures (there is no lock to outwait; its begin already waits out the
// seqlock), a TML loser's snapshot is stale the moment the writer CASed
// (waiting cannot save it), and CGL never conflicts. The factory accepts
// the knob for them and they ignore it, documented in ALGORITHMS.md.
//
// votm-check integration: under the cooperative harness the wait runs a
// small deterministic number of kCmWait yield points instead of a real
// spin. Fault sites: kCmWaitTimeout forces the timeout fallback at wait
// entry; kCmWaitLostWakeup makes the wait blind to the winner's unlock,
// so it MUST exit through its bound (the lost-wakeup torture case).
#pragma once

#include <cstdint>
#include <thread>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/engine.hpp"
#include "stm/orec_table.hpp"
#include "util/backoff.hpp"

namespace votm::stm {

enum class ContentionMode : std::uint8_t {
  kAbortRetry,   // today's behavior: loser aborts, backs off, retries
  kWaitTimeout,  // loser parks on the winner's orec, bounded; timeout
                 // falls back to kAbortRetry
};

inline const char* to_string(ContentionMode m) noexcept {
  switch (m) {
    case ContentionMode::kAbortRetry: return "abort_retry";
    case ContentionMode::kWaitTimeout: return "wait_timeout";
  }
  return "?";
}

inline bool contention_mode_from_string(const char* s,
                                        ContentionMode* out) noexcept {
  auto eq = [](const char* a, const char* b) noexcept {
    for (; *a && *b; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z') ? char(*a - 'A' + 'a') : *a;
      const char cb = ca == '-' ? '_' : ca;
      if (cb != *b) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (eq(s, "abort_retry") || eq(s, "abort")) {
    *out = ContentionMode::kAbortRetry;
    return true;
  }
  if (eq(s, "wait_timeout") || eq(s, "wait")) {
    *out = ContentionMode::kWaitTimeout;
    return true;
  }
  return false;
}

// Bounds for the wait budget (sanitized in stm/factory.cpp: zero/negative
// and over-limit values are clamped with a stderr note + FactoryStats
// counter, mirroring the orec-table knob treatment).
inline constexpr std::uint32_t kCmWaitSpinsDefault = 4096;
inline constexpr std::uint32_t kCmWaitSpinsMin = 1;
inline constexpr std::uint32_t kCmWaitSpinsMax = 1u << 22;
// Deterministic wait bound under the cooperative harness: each iteration
// is one kCmWait yield point, so exploration stays finite regardless of
// the configured real-time spin budget.
inline constexpr unsigned kCmWaitCoopBound = 8;

// Per-engine wait-CM configuration, sanitized once by the factory.
struct CmRuntime {
  ContentionMode mode = ContentionMode::kAbortRetry;
  std::uint32_t wait_spins = kCmWaitSpinsDefault;
};

// Park `tx` on `orec`, last observed as the locked word `observed`, until
// the word changes or the bounded wait gives up.
//
// Returns true when the caller should RE-CHECK the conflict (the orec
// changed: the winner committed or aborted); false when the loser must
// fall back to the abort path (mode is kAbortRetry, the ordinal rule
// forbids waiting, the wait timed out, or the transaction is past its
// deadline). Never touches the owner's TxThread memory.
inline bool cm_wait_orec(TxThread& tx, const Orec& orec,
                         Orec::Packed observed, const CmRuntime& cm) {
  if (cm.mode != ContentionMode::kWaitTimeout) return false;
  // Serial transactions never reach here (they run alone), but stay safe.
  if (tx.serial) return false;
  // Ordinal rule: see the file header. &tx is this thread's rank.
  if (!tx.wlocks.empty() &&
      reinterpret_cast<std::uintptr_t>(Orec::owner_of(observed)) >=
          reinterpret_cast<std::uintptr_t>(&tx)) {
    return false;
  }
  if (tx.deadline.expired()) return false;
  if (VOTM_FAULT(kCmWaitTimeout)) return false;
  // Availability fault: the unlock is never observed — the loop below
  // must exit through its iteration bound, not through the re-check.
  const bool lost_wakeup = VOTM_FAULT(kCmWaitLostWakeup);
  if (votm::check::thread_intercepted()) {
    for (unsigned i = 0; i < kCmWaitCoopBound; ++i) {
      VOTM_SCHED_YIELD_POINT(kCmWait);
      if (!lost_wakeup &&
          orec.load(std::memory_order_acquire) != observed) {
        return true;
      }
    }
    return false;
  }
  for (std::uint32_t i = 0; i < cm.wait_spins; ++i) {
    Backoff::cpu_relax();
    // Oversubscribed hosts: the winner may need this core to finish its
    // commit; periodically hand it over.
    if ((i & 0x3FF) == 0x3FF) std::this_thread::yield();
    if (!lost_wakeup && orec.load(std::memory_order_acquire) != observed) {
      return true;
    }
    // The deadline caps the wait even mid-budget; amortize the clock read.
    if ((i & 0xFF) == 0xFF && tx.deadline.expired()) return false;
  }
  return false;
}

}  // namespace votm::stm
