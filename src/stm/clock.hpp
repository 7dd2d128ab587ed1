// VersionClock: the per-engine global version clock of the orec engine,
// with runtime-selectable timestamp-allocation policies.
//
// Every orec writer commit used to end with a fetch_add on a
// single CacheLinePadded<atomic<uint64_t>> — one shared-line RMW per commit
// that serializes otherwise disjoint-access-parallel transactions. Following
// the RSTM "GV" family (and Huang et al., *The Impact of Timestamp
// Granularity in Optimistic Concurrency Control*), this component offers
// two policies over the same clock word:
//
//   GV1  fetch_add(1).            One RMW per writer commit; commit
//        timestamps are unique and dense. The default, and bit-identical
//        to the pre-refactor engines.
//   GV5  thread-cached, no global RMW on the commit path. The commit
//        timestamp is max(global, own last commit, start_time) + 1 —
//        a "future" timestamp that may run ahead of the global clock.
//        Readers that meet a future version tolerate it through the
//        engines' existing TinySTM-style extension, and extension_bound()
//        lazily pushes the global clock forward (see below), so one
//        global CAS amortizes over many commits.
//
// Timestamp-sharing/future-timestamp safety. The engines' opacity argument
// needs one clock invariant: for any snapshot s a transaction obtains from
// this clock (read() or extension_bound()), every writer that will unlock
// its orecs to a version <= s already held ALL of its write locks when s
// was obtained. Then "version <= s and unlocked" proves "committed before
// my snapshot", and incremental validation is sound. Each tick() policy
// preserves it the same way: the committer derives end_time strictly
// greater than a clock value it loaded AFTER acquiring every write lock.
// Since the clock word is monotone, any snapshot s >= end_time must have
// been read from a clock state that the committer's post-lock load also
// saw coherence-before it — i.e. after the locks were all held. Running
// ahead of the global (GV5) never breaks this; only deriving end_time
// from a pre-lock load would.
//
// Memory-order contract (the one place it is documented — call sites
// should not re-derive it):
//   * read() is an ACQUIRE load. It synchronizes with the release side of
//     the ticket RMW (GV1) or of extension_bound()'s propagation CAS
//     (GV5), so a transaction that starts at snapshot s happens-after the
//     lock acquisitions of every writer with end_time <= s (invariant
//     above). The pre-refactor headers' relaxed clock() getters were a
//     (benign on x86, wrong in the abstract machine) divergence from the
//     acquire in begin(); both now funnel here.
//   * tick() RMWs are ACQ_REL: release to order the preceding write-lock
//     CASes before the published value, acquire so the committer's
//     validation bound covers every commit it might race.
//   * note_commit() publishes to the thread's own padded slot with a
//     RELEASE store (no RMW — the slot has a single writer). The acquire
//     side is quiescence_horizon()/last_commit() readers.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "check/sched_point.hpp"
#include "util/cacheline.hpp"
#include "util/thread_ordinal.hpp"

namespace votm::stm {

enum class ClockPolicy : std::uint8_t {
  kGv1,  // fetch_add per commit (default; pre-refactor behavior)
  kGv5,  // thread-cached future timestamps, no global RMW per commit
};

inline const char* to_string(ClockPolicy p) noexcept {
  switch (p) {
    case ClockPolicy::kGv1: return "gv1";
    case ClockPolicy::kGv5: return "gv5";
  }
  return "?";
}

// Accepts "gv1"/"GV5"/... ; returns false on unknown names.
inline bool clock_policy_from_string(const char* s, ClockPolicy* out) noexcept {
  auto eq = [](const char* a, const char* b) noexcept {
    for (; *a && *b; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z') ? char(*a - 'A' + 'a') : *a;
      if (ca != *b) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (eq(s, "gv1")) { *out = ClockPolicy::kGv1; return true; }
  if (eq(s, "gv5")) { *out = ClockPolicy::kGv5; return true; }
  return false;
}

class VersionClock {
 public:
  // A commit timestamp plus whether the committer still has to validate
  // its read set. GV1 can prove "nothing committed since I began"
  // straight from the ticket (end_time adjacent to start_time); GV5 never
  // can, because commits do not advance the global clock.
  struct Ticket {
    std::uint64_t end_time;
    bool need_validation;
  };

  // Per-thread quiescence/cache slots. Power of two; threads map by
  // thread_ordinal() & (kSlots - 1). Ordinals are process-wide and never
  // reused, so a long-lived process with more than kSlots concurrently
  // live threads can alias two threads onto one slot: note_commit()'s
  // monotonic max keeps every published value a real committed timestamp
  // (safe for both uses below), and the quiescence horizon only gets more
  // conservative, never ahead of a thread's true last commit.
  static constexpr std::size_t kSlots = 64;

  explicit VersionClock(ClockPolicy policy = ClockPolicy::kGv1) noexcept
      : policy_(policy) {}

  VersionClock(const VersionClock&) = delete;
  VersionClock& operator=(const VersionClock&) = delete;

  ClockPolicy policy() const noexcept { return policy_; }

  // Current clock value: the introspection accessor and the engines'
  // begin() snapshot. Acquire — see the memory-order contract in the
  // header comment.
  std::uint64_t read() const noexcept {
    return clock_.value.load(std::memory_order_acquire);
  }

  // Allocates the commit timestamp for a writer. PRECONDITION: the caller
  // holds every write lock of the committing transaction — each policy's
  // safety rests on loading the clock after the locks (header comment).
  // The sched point sits BEFORE any clock access so votm-check can race
  // committers around the RMW while the no-point-after-publication rule
  // (oracle serialization witness) still holds for the engines' tails.
  // Always inlined: GCC would otherwise keep this commit-path call out of
  // line in the orec engine's translation unit.
  [[gnu::always_inline]] Ticket tick(std::uint64_t start_time) noexcept {
    VOTM_SCHED_POINT(kStmClockTick);
    if (policy_ == ClockPolicy::kGv5) return tick_gv5(start_time);
    // GV1: bit-identical to the pre-refactor commit tails, including the
    // skip-validation condition: end_time == start_time + 1 proves no
    // other writer ticked since we began.
    const std::uint64_t end =
        clock_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
    return Ticket{end, end != start_time + 1};
  }

  // Snapshot bound for TinySTM-style extension. `observed` is the orec
  // version that forced the extension (0 when extending for other
  // reasons). Returns a clock value >= observed, so the engines' read/
  // write retry loops terminate even under GV5, where a committed orec
  // may carry a version the global clock has not reached yet. To keep the
  // clock invariant, a future `observed` is first CAS-propagated into the
  // global clock — publishing a committed transaction's timestamp is
  // always legal, and the release CAS gives later begin()/extension
  // snapshots the happens-after edge the invariant needs. GV5 also
  // propagates the thread's own last commit timestamp: that one CAS pays
  // for the whole backlog of commits the thread made since the global
  // clock last moved, which is what makes the no-RMW commit path amortize
  // instead of merely deferring the contention to readers.
  std::uint64_t extension_bound(std::uint64_t observed) noexcept {
    if (policy_ == ClockPolicy::kGv5) {
      observed = std::max(
          observed, slots_[slot_index()].value.load(std::memory_order_relaxed));
    }
    std::uint64_t now = clock_.value.load(std::memory_order_acquire);
    while (now < observed &&
           !clock_.value.compare_exchange_weak(now, observed,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
      // `now` reloaded by the failed CAS; only futures need propagating.
    }
    return std::max(now, observed);
  }

  // Publishes `end_time` to the calling thread's padded quiescence slot:
  // "this thread's last commit is fully visible through timestamp
  // end_time". Called by the engines after the unlock sweep. Monotonic
  // load + release store, no RMW — the GV1 path stays free of extra
  // atomic RMWs (inertness), and the slot doubles as GV5's thread cache.
  void note_commit(std::uint64_t end_time) noexcept {
    std::atomic<std::uint64_t>& slot = slots_[slot_index()].value;
    if (slot.load(std::memory_order_relaxed) < end_time) {
      slot.store(end_time, std::memory_order_release);
    }
  }

  // Begin-snapshot bound for MVCC-lite read-only transactions: a snapshot
  // s such that every commit COMPLETED (returned from commit()) before
  // this call has end_time <= s. A versioned read below that line would
  // time-travel behind a transaction the caller already happened-after —
  // a real-time-order (opacity) violation the check oracle catches.
  // GV1 derives every end_time from the global clock word itself, so
  // read() already dominates all completed commits. GV5 commits run ahead
  // of the clock; the per-thread note_commit() slots are the only record,
  // so take their max and legalize it as a snapshot via the
  // extension_bound() propagation CAS (publishing committed timestamps is
  // always allowed, and the CAS provides the happens-after edge the clock
  // invariant needs — a raw slot max would not).
  std::uint64_t completed_commit_bound() noexcept {
    if (policy_ != ClockPolicy::kGv5) return read();
    std::uint64_t latest = 0;
    for (const auto& s : slots_) {
      latest = std::max(latest, s.value.load(std::memory_order_acquire));
    }
    return extension_bound(latest);
  }

  // --- quiescence introspection (the core/arena privatization hook) -----

  std::uint64_t last_commit(std::size_t slot) const noexcept {
    return slots_[slot & (kSlots - 1)].value.load(std::memory_order_acquire);
  }

  // Minimum over all slots that have ever published: every thread that has
  // committed here has made all commits with end_time <= horizon fully
  // visible. Slots that never committed (0) do not hold the horizon back;
  // a quiescence protocol that must also wait out in-flight readers needs
  // the engines' start_time accounting on top of this.
  std::uint64_t quiescence_horizon() const noexcept {
    std::uint64_t horizon = ~std::uint64_t{0};
    bool any = false;
    for (const auto& s : slots_) {
      const std::uint64_t v = s.value.load(std::memory_order_acquire);
      if (v != 0) {
        horizon = std::min(horizon, v);
        any = true;
      }
    }
    return any ? horizon : 0;
  }

 private:
  static std::size_t slot_index() noexcept {
    return thread_ordinal() & (kSlots - 1);
  }

  Ticket tick_gv5(std::uint64_t start_time) noexcept {
    // No global RMW. The global load must still happen here, after the
    // write locks — deriving end_time from the cached slot alone would
    // let a writer with a stale view commit "behind" a fresh reader's
    // snapshot. Maxing in the own-slot cache keeps a thread's timestamps
    // strictly increasing even when the global clock lags.
    const std::uint64_t cached =
        slots_[slot_index()].value.load(std::memory_order_relaxed);
    const std::uint64_t seen = clock_.value.load(std::memory_order_acquire);
    const std::uint64_t end = std::max({seen, cached, start_time}) + 1;
    return Ticket{end, true};
  }

  CacheLinePadded<std::atomic<std::uint64_t>> clock_{};
  CacheLinePadded<std::atomic<std::uint64_t>> slots_[kSlots]{};
  ClockPolicy policy_;
};

}  // namespace votm::stm
