// MVCC-lite versioned read path: bounded rings of recent (version, value)
// pairs that let a read-only transaction survive a slipped commit by
// reading the newest retained value consistent with its start snapshot
// instead of aborting (ROADMAP item 3; cf. Chaudhary & Peri, "Achieving
// Starvation-Freedom with Greater Concurrency in Multi-Version
// Object-based TM").
//
// Two ring shapes, one per engine family:
//
//   * OrecVersionRings (OrecEagerRedo / OrecLazy / OrecEagerUndo): a small
//     per-stripe ring keyed off the same hash as OrecTable::for_address.
//     A committing writer, after its read-set validation has passed and
//     while it still holds the stripe lock, pushes one entry per written
//     word: (addr, old value, [from, until)) meaning "addr held this value
//     for every snapshot in [from, until)". `from` is the stripe version
//     the writer locked over (an over-approximation: the word itself may
//     have been older, which only narrows the window — safe), `until` is
//     the writer's commit timestamp. A read-only transaction that meets a
//     stripe newer than its start_time looks for an entry whose window
//     covers start_time; a hit PINS the snapshot (no later extension) and
//     returns the retained value, a miss falls back to the engine's
//     existing extend-or-conflict path.
//
//   * CommitLogRing (NOrec): NOrec has no stripes, so committers publish a
//     bounded (addr, old value) log per commit into a global ring indexed
//     by commit sequence, reusing the SigSlot stamp protocol from the
//     PR 3 signature broadcast. A pinned reader reconstructs the value at
//     its snapshot by walking the commits that landed since, newest first,
//     replacing the current value with each commit's logged old value.
//     Any unreadable slot (lapped ring, overflowed commit, serial-mode
//     bump) fails the reconstruction and the reader falls back to a
//     conflict — exactly the pre-MVCC outcome.
//
// Entry stamp protocol (both shapes; same as NOrecEngine::SigSlot): a
// writer zeroes the stamp, publishes the payload behind a release fence,
// then re-stamps with a release store; a reader accepts a payload only
// when an acquire stamp load before and a fenced relaxed load after agree
// on the same nonzero stamp. Stamps are commit timestamps (monotone per
// slot, never reused), so the ABA case cannot pass. Ring pushers never
// race each other: orec rings are serialized by the stripe's write lock,
// the NOrec ring by the global sequence lock.
//
// Retirement: any eviction is safe (a reader that misses merely conflicts,
// the pre-MVCC behaviour), so retirement is a reuse POLICY, not a safety
// protocol — with ONE exception layered on top by PR 7: entries can point
// into memory a committed transaction freed, so the epoch layer
// (stm/epoch.hpp) calls retire_below() with the freeing commits' timestamp
// bound right before the arena reclaims those blocks, guaranteeing rings
// never outlive the memory they reference. push() prefers recycling slots
// whose window closed at or below the cached quiescence horizon
// (VersionClock::quiescence_horizon() — every thread has committed past
// them, so they mostly serve snapshots older than any recent reader)
// before falling back to round-robin eviction of a live entry ("lapping"),
// and returns false on that fallback so the engine can refresh its cached
// horizon immediately instead of waiting out the refresh cadence
// (OrecVersionRings::kHorizonRefreshPushes commits). Note the
// horizon bounds writer recency, not reader snapshots: a very long reader
// may still lose its entry to reuse — and then conflicts, safely.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"
#include "stm/engine.hpp"
#include "stm/logs.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

// Compile-time default for EngineConfig::mvcc, following the VOTM_MVCC
// CMake option (same pattern as kValidationFiltersDefault). Engines
// constructed directly default to OFF regardless — only the factory (and
// through it the view layer) applies this default.
inline constexpr bool kMvccDefault =
#if defined(VOTM_MVCC) && !VOTM_MVCC
    false;
#else
    true;
#endif

// Per-stripe version rings for the orec engines.
class OrecVersionRings {
 public:
  static constexpr std::size_t kDefaultDepth = 4;
  // Writer commits between refreshes of the cached quiescence horizon
  // that steers ring recycling (orec engines). Between refreshes the cache
  // can go stale and push() falls back to round-robin eviction; the
  // engines also refresh immediately when a push reports a lap, so the
  // staleness window is one lapped commit, not the cadence (unit-tested
  // via the kEpochStaleHorizon fault site). A power of two: the engines
  // pace with `(counter++ & (kHorizonRefreshPushes - 1)) == 0`.
  static constexpr std::uint32_t kHorizonRefreshPushes = 256;
  static_assert((kHorizonRefreshPushes & (kHorizonRefreshPushes - 1)) == 0);

  OrecVersionRings(std::size_t stripes, std::size_t depth = kDefaultDepth)
      : stripes_(stripes),
        depth_(depth == 0 ? 1 : depth),
        entries_(std::make_unique<Entry[]>(stripes_ * depth_)),
        heads_(std::make_unique<std::uint32_t[]>(stripes_)) {
    for (std::size_t i = 0; i < stripes_; ++i) heads_[i] = 0;
  }

  std::size_t stripes() const noexcept { return stripes_; }
  std::size_t depth() const noexcept { return depth_; }

  // Publishes "addr held `value` for every snapshot in [from, until)".
  // Caller must hold the stripe's write lock (pushes to one ring never
  // race); readers are fenced off by the stamp protocol. Slot choice
  // prefers recycling an empty slot or an entry already retired below
  // the cached horizon; returns false when it had to round-robin-evict
  // a live entry instead (the "lapped" signal — the caller should
  // refresh the cached horizon, see the file header).
  bool push(std::size_t stripe, const Word* addr, Word value,
            std::uint64_t from, std::uint64_t until) noexcept {
    Entry* ring = &entries_[stripe * depth_];
    const std::uint64_t h = horizon_.load(std::memory_order_relaxed);
    std::size_t idx = depth_;
    bool lapped = false;
    for (std::size_t i = 0; i < depth_; ++i) {
      const std::uint64_t st = ring[i].stamp.load(std::memory_order_relaxed);
      if (st == 0 || (h != 0 && st <= h)) {
        idx = i;
        break;
      }
    }
    if (idx == depth_) {
      idx = heads_[stripe];
      heads_[stripe] = idx + 1 == depth_ ? 0 : static_cast<std::uint32_t>(idx + 1);
      lapped = true;
    }
    Entry& e = ring[idx];
    e.stamp.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    e.from.store(from, std::memory_order_relaxed);
    e.addr.store(addr, std::memory_order_relaxed);
    e.value.store(value, std::memory_order_relaxed);
    e.stamp.store(until, std::memory_order_release);
    return !lapped;
  }

  // Finds an entry for `addr` whose window covers `snapshot`; on success
  // writes the retained value to *out. A miss (no covering entry, a
  // mid-update slot, or the injected ring-lap fault) returns false and the
  // caller takes its pre-MVCC path.
  bool lookup(std::size_t stripe, const Word* addr, std::uint64_t snapshot,
              Word* out) const noexcept {
    VOTM_SCHED_POINT(kStmMvccRead);
    // Availability fault: the covering entry was lapped/evicted just before
    // we looked. The campaign proves the fallback (extend or conflict) is
    // taken and the system stays correct and live.
    if (VOTM_FAULT(kMvccRingLap)) return false;
    const Entry* ring = &entries_[stripe * depth_];
    for (std::size_t i = 0; i < depth_; ++i) {
      const Entry& e = ring[i];
      const std::uint64_t until = e.stamp.load(std::memory_order_acquire);
      if (until == 0 || until <= snapshot) continue;
      const Word* a = e.addr.load(std::memory_order_relaxed);
      const std::uint64_t from = e.from.load(std::memory_order_relaxed);
      const Word v = e.value.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (e.stamp.load(std::memory_order_relaxed) != until) continue;
      if (a != addr || from > snapshot) continue;
      *out = v;
      return true;
    }
    return false;
  }

  // Caches the quiescence horizon that push() prefers to recycle below.
  void set_horizon(std::uint64_t horizon) noexcept {
    horizon_.store(horizon, std::memory_order_relaxed);
  }
  std::uint64_t horizon() const noexcept {
    return horizon_.load(std::memory_order_relaxed);
  }

  // Explicitly retires every entry whose window closed at or below
  // `horizon`. Safe against concurrent readers (they re-check the stamp)
  // and concurrent pushers (either order leaves the slot empty or freshly
  // stamped — both fine, eviction is always safe).
  std::size_t retire_below(std::uint64_t horizon) noexcept {
    std::size_t retired = 0;
    const std::size_t total = stripes_ * depth_;
    for (std::size_t i = 0; i < total; ++i) {
      const std::uint64_t st = entries_[i].stamp.load(std::memory_order_relaxed);
      if (st != 0 && st <= horizon) {
        entries_[i].stamp.store(0, std::memory_order_relaxed);
        ++retired;
      }
    }
    return retired;
  }

  // Live (stamped) entries; test/introspection only.
  std::size_t live_entries() const noexcept {
    std::size_t live = 0;
    const std::size_t total = stripes_ * depth_;
    for (std::size_t i = 0; i < total; ++i) {
      if (entries_[i].stamp.load(std::memory_order_relaxed) != 0) ++live;
    }
    return live;
  }

 private:
  struct Entry {
    std::atomic<std::uint64_t> stamp{0};  // v_until; 0 = empty / mid-update
    std::atomic<std::uint64_t> from{0};   // v_from (window start)
    std::atomic<const Word*> addr{nullptr};
    std::atomic<Word> value{0};
  };

  std::size_t stripes_;
  std::size_t depth_;
  std::unique_ptr<Entry[]> entries_;
  std::unique_ptr<std::uint32_t[]> heads_;  // guarded by the stripe lock
  std::atomic<std::uint64_t> horizon_{0};
};

// Global commit-log ring for NOrec: one slot per recent commit, indexed by
// the even sequence value the commit published.
class CommitLogRing {
 public:
  static constexpr std::size_t kSlots = 64;   // power of two
  static constexpr std::size_t kPairs = 16;   // max logged words per commit
  static constexpr std::uint32_t kOverflow = ~std::uint32_t{0};

 private:
  struct Slot_ {
    std::atomic<std::uint64_t> stamp{0};  // even commit seq; 0 = invalid
    std::atomic<std::uint32_t> count{0};
    std::atomic<const Word*> addrs[kPairs] = {};
    std::atomic<Word> olds[kPairs] = {};
  };

 public:

  // A commit publishes in three steps while it holds the sequence lock:
  // begin_publish (invalidate the slot), record per written word (the OLD
  // value, captured before that word's write-back), finish_publish (stamp
  // the slot with the commit's even sequence). Oversized write sets mark
  // the slot kOverflow — readers crossing it fail reconstruction and fall
  // back to a conflict.
  struct Publisher {
    Slot_* slot = nullptr;
    std::uint32_t n = 0;
    bool overflow = false;
  };

  Publisher begin_publish(std::uint64_t commit_seq) noexcept {
    Publisher p;
    p.slot = &slots_[(commit_seq >> 1) & (kSlots - 1)];
    p.slot->stamp.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    return p;
  }

  void record(Publisher& p, const Word* addr, Word old_value) noexcept {
    if (p.n == kPairs) {
      p.overflow = true;
      return;
    }
    p.slot->addrs[p.n].store(addr, std::memory_order_relaxed);
    p.slot->olds[p.n].store(old_value, std::memory_order_relaxed);
    ++p.n;
  }

  void finish_publish(Publisher& p, std::uint64_t commit_seq) noexcept {
    p.slot->count.store(p.overflow ? kOverflow : p.n,
                        std::memory_order_relaxed);
    p.slot->stamp.store(commit_seq, std::memory_order_release);
  }

  // Rewinds *value (the value of addr at even sequence `now`) to the
  // reader's `snapshot` by applying, newest first, the old value logged by
  // every commit in (snapshot, now]. False = some slot is unreadable
  // (lapped, overflowed, mid-update, or a serial-mode sequence bump that
  // published nothing): the caller must treat the read as a conflict. The
  // caller is responsible for re-checking that the sequence lock still
  // reads `now` afterwards (a mid-walk committer can fail stamps here
  // spuriously; the re-check turns that into a retry, not an abort).
  // Drops every published commit slot whose (even) sequence stamp is at
  // or below `bound`: readers crossing a dropped slot fail reconstruction
  // and fall back to a conflict, which is exactly the fail-closed
  // contract. Called by the epoch layer before freed memory is reclaimed
  // so no slot's (addr, old value) pairs reference it. Safe against
  // concurrent readers (stamp re-check) and publishers (a publisher
  // rewriting the slot observes its own newer stamp last).
  std::size_t retire_below(std::uint64_t bound) noexcept {
    std::size_t retired = 0;
    for (Slot_& slot : slots_) {
      const std::uint64_t st = slot.stamp.load(std::memory_order_relaxed);
      if (st != 0 && st <= bound) {
        slot.stamp.store(0, std::memory_order_relaxed);
        ++retired;
      }
    }
    return retired;
  }

  // Live (stamped) slots; test/introspection only.
  std::size_t live_slots() const noexcept {
    std::size_t live = 0;
    for (const Slot_& slot : slots_) {
      if (slot.stamp.load(std::memory_order_relaxed) != 0) ++live;
    }
    return live;
  }

  bool reconstruct(const Word* addr, std::uint64_t snapshot, std::uint64_t now,
                   Word* value) const noexcept {
    if (((now - snapshot) >> 1) > kSlots) return false;  // guaranteed lap
    if (VOTM_FAULT(kMvccRingLap)) return false;
    for (std::uint64_t s = now; s > snapshot; s -= 2) {
      const Slot_& slot = slots_[(s >> 1) & (kSlots - 1)];
      if (slot.stamp.load(std::memory_order_acquire) != s) return false;
      const std::uint32_t n = slot.count.load(std::memory_order_relaxed);
      if (n == kOverflow) return false;
      Word replacement = 0;
      bool matched = false;
      for (std::uint32_t i = 0; i < n && i < kPairs; ++i) {
        if (slot.addrs[i].load(std::memory_order_relaxed) == addr) {
          replacement = slot.olds[i].load(std::memory_order_relaxed);
          matched = true;
        }
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != s) return false;
      if (matched) *value = replacement;
    }
    return true;
  }

 private:
  Slot_ slots_[kSlots] = {};
};

// --- commit-side publication for the orec engines ---------------------------
//
// Both helpers run after read-set validation has passed and while every
// write lock is still held, so no sched point may fire inside them (the
// clock ticket is the serialization point; see the engines' commit tails).
// `from` for each entry is the old_version recorded when the stripe was
// locked; the linear wlocks scan is memoized on the last hit because
// consecutive write-set entries frequently share a stripe.

namespace detail {
inline std::uint64_t owned_version_for(const std::vector<OwnedOrec>& wlocks,
                                       const Orec* orec,
                                       std::size_t& hint) noexcept {
  const std::size_t n = wlocks.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = hint + k < n ? hint + k : hint + k - n;
    if (wlocks[i].orec == orec) {
      hint = i;
      return wlocks[i].old_version;
    }
  }
  return 0;  // unreachable: every written stripe is in wlocks
}
}  // namespace detail

// Redo-family engines (OrecEagerRedo, OrecLazy): memory still holds the
// pre-commit values, so each written word's retiring value is read straight
// from memory. Call BEFORE the write-back pass. Returns true if any push
// had to evict a live entry (the ring lapped) — the engine should refresh
// its cached quiescence horizon.
inline bool mvcc_publish_redo(OrecVersionRings& rings, OrecTable& orecs,
                              const TxThread& tx,
                              std::uint64_t end_time) noexcept {
  std::size_t hint = 0;
  bool lapped = false;
  for (const WriteSet::Entry& e : tx.wset.entries()) {
    const std::size_t stripe = orecs.index_for(e.addr);
    const std::uint64_t from =
        detail::owned_version_for(tx.wlocks, &orecs.at(stripe), hint);
    lapped |= !rings.push(stripe, e.addr, load_word(e.addr), from, end_time);
  }
  return lapped;
}

// Undo-family engine (OrecEagerUndo): memory already holds the new values;
// the pre-transaction value of each word is the FIRST undo-log (tx.vlog)
// entry for that address. tx.wset is unused by the undo engine and doubles
// as the per-address dedup set here; commit's clear_logs() wipes it along
// with everything else.
inline bool mvcc_publish_undo(OrecVersionRings& rings, OrecTable& orecs,
                              TxThread& tx, std::uint64_t end_time) {
  std::size_t hint = 0;
  bool lapped = false;
  for (const ValueReadLog::Entry& e : tx.vlog.entries()) {
    if (tx.wset.lookup(e.addr) != nullptr) continue;
    Word* addr = const_cast<Word*>(e.addr);
    tx.wset.insert(addr, e.value);
    const std::size_t stripe = orecs.index_for(addr);
    const std::uint64_t from =
        detail::owned_version_for(tx.wlocks, &orecs.at(stripe), hint);
    lapped |= !rings.push(stripe, addr, e.value, from, end_time);
  }
  return lapped;
}

}  // namespace votm::stm
