#include "stm/orec_engine.hpp"

#include <thread>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"

namespace votm::stm {
namespace {

// Each variant keeps its own availability fault site, so a campaign can
// target one engine's commit tail (tests/test_fault.cpp).
template <OrecLocking Locking, OrecLogging Logging>
bool commit_tail_fault() {
  if constexpr (Locking == OrecLocking::kCommit) {
    return VOTM_FAULT(kOrecLazyCommitTail);
  } else if constexpr (Logging == OrecLogging::kUndo) {
    return VOTM_FAULT(kOrecEagerUndoCommitTail);
  } else {
    return VOTM_FAULT(kOrecEagerRedoCommitTail);
  }
}

}  // namespace

// The undo variant repurposes TxThread::vlog as its UNDO log: (address,
// value before each overwrite), applied in reverse order on rollback. The
// redo variants buffer in tx.wset and never touch vlog.

template <OrecLocking Locking, OrecLogging Logging>
void OrecEngine<Locking, Logging>::begin(TxThread& tx) {
  VOTM_SCHED_POINT(kStmBegin);
  // MVCC-lite read-only begins need a snapshot that dominates every
  // COMPLETED commit (GV5 commits can run ahead of the raw clock): a
  // versioned read below that line would serialize the reader behind
  // real time. See VersionClock::completed_commit_bound. (read_only is
  // tested first: it short-circuits on a thread-hot field, keeping writer
  // begins off the engine flag entirely.)
  if (tx.read_only && mvcc_) {
    tx.start_time = clock_.completed_commit_bound();
    tx.mvcc_snapshot_reads = 0;
  } else {
    tx.start_time = clock_.begin_snapshot();
  }
  begin_common(tx, this);
  // Victim-choice CM: rank this attempt and publish the priority before
  // anyone can meet our locks (DESIGN.md §20).
  cm_on_begin(tx, cm_, tx.start_time);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

template <OrecLocking Locking, OrecLogging Logging>
bool OrecEngine<Locking, Logging>::read_log_valid(
    TxThread& tx, std::uint64_t bound) const noexcept {
  for (const Orec* o : tx.rlog.entries()) {
    const Orec::Packed p = o->load();
    if (Orec::is_locked(p)) {
      if (Orec::owner_of(p) != &tx) return false;
    } else if (Orec::version_of(p) > bound) {
      return false;
    }
  }
  return true;
}

template <OrecLocking Locking, OrecLogging Logging>
void OrecEngine<Locking, Logging>::extend(TxThread& tx,
                                          std::uint64_t observed) {
  VOTM_SCHED_POINT(kStmValidate);
  deadline_poll(tx);
  // A higher-priority loser may be parked on one of our locks (encounter
  // locks, or commit locks mid-acquisition); honor its yield demand here,
  // where conflict() is still clean.
  cm_owner_poll(tx, cm_);
  // If nothing we read changed since start_time, the snapshot can be moved
  // forward to `now`; otherwise the transaction is doomed. `now` covers
  // `observed`, so the caller's retry loop terminates even when the
  // version that forced the extension runs ahead of the global clock (GV5).
  const std::uint64_t now = clock_.extension_bound(observed);
  if (!read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kValidationFail);
  }
  tx.start_time = now;
}

template <OrecLocking Locking, OrecLogging Logging>
bool OrecEngine<Locking, Logging>::mvcc_read(TxThread& tx, std::size_t stripe,
                                             const Word* addr,
                                             Word* out) noexcept {
  if (!rings_->lookup(stripe, addr, tx.start_time, out)) return false;
  // Consuming a retained value fixes the snapshot: a later extension would
  // move start_time past this value's window. All further slipped commits
  // must be served by the rings too, or the transaction conflicts.
  tx.snapshot_pinned = true;
  ++tx.mvcc_snapshot_reads;
  return true;
}

template <OrecLocking Locking, OrecLogging Logging>
Word OrecEngine<Locking, Logging>::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode runs alone in a drained view: plain access, no logging.
  if (tx.serial) return load_word(addr);
  if constexpr (kRedo) {
    if (const Word* buffered = tx.wset.lookup(addr)) return *buffered;
  }
  const std::size_t stripe = orecs_.index_for(addr);
  Orec& o = orecs_.at(stripe);
  [[maybe_unused]] int spins = 0;
  for (;;) {
    const Orec::Packed before = o.load();
    if (Orec::is_locked(before)) {
      if constexpr (kEager) {
        // Our own lock: memory holds the pre-tx value (redo, an aliased
        // address not in the redo log) or our speculative value (undo).
        if (Orec::owner_of(before) == &tx) return load_word(addr);
      }
      // MVCC-lite: a read-only transaction may still find its snapshot's
      // value in the stripe ring even while a writer holds the lock.
      if (mvcc_ && tx.read_only) {
        Word retained;
        if (mvcc_read(tx, stripe, addr, &retained)) return retained;
      }
      if constexpr (kEager) {
        // Victim-choice CM: rank us against the lock holder, then wait out
        // or abort per the decision (kAbortSelf degrades to the plain
        // kWaitTimeout park; a changed word means the lock moved and the
        // protocol can re-run instead of aborting).
        if (cm_resolve_foreign_lock(tx, o, before, cm_)) continue;
        // Aggressive self-abort on foreign lock: the paper's configuration,
        // and the source of livelock at high contention. Under undo the
        // locked in-place value is speculative and must never be read.
        tx.conflict(ConflictKind::kReadLocked);
      } else {
        // Commit-time locks are held only across commit write-back; the
        // window is short, so wait it out rather than abort. Yield
        // periodically: on an oversubscribed host the committer may be
        // descheduled, and a pure spin would block it for a whole quantum.
        VOTM_SCHED_YIELD_POINT(kStmWaitOrec);
        Backoff::cpu_relax();
        if (++spins > 64) {
          std::this_thread::yield();
          spins = 0;
          // The wait-out loop has no other bound; without this poll a
          // past-deadline reader could outwait writers forever.
          deadline_poll(tx);
        }
        continue;
      }
    }
    if (Orec::version_of(before) > tx.start_time) {
      // MVCC-lite: the stripe moved past our snapshot — the classic
      // long-reader death. Prefer the retained value at start_time; a
      // miss falls back to extension (still legal while unpinned) or,
      // once pinned, to the conflict the ring was meant to avoid.
      if (mvcc_ && tx.read_only) {
        Word retained;
        if (mvcc_read(tx, stripe, addr, &retained)) return retained;
        if (tx.snapshot_pinned) tx.conflict(ConflictKind::kValidationFail);
      }
      extend(tx, Orec::version_of(before));
      continue;
    }
    const Word value = load_word(addr);
    VOTM_SCHED_POINT(kStmReadRetry);
    if (o.load() == before) {
      tx.rlog.push(&o);
      return value;
    }
    // The orec moved under us mid-read; re-run the protocol.
  }
}

template <OrecLocking Locking, OrecLogging Logging>
void OrecEngine<Locking, Logging>::acquire(TxThread& tx, Orec& o,
                                           ConflictKind kind) {
  for (;;) {
    const Orec::Packed p = o.load();
    if (Orec::is_locked(p)) {
      if (Orec::owner_of(p) == &tx) return;  // already ours (or aliased)
      // Victim-choice CM at the foreign lock. In the commit-time sweep we
      // may already hold locks, so the ordinal rule inside cm_wait_orec
      // gates the wait there.
      if (cm_resolve_foreign_lock(tx, o, p, cm_)) continue;
      tx.conflict(kind);
    }
    if (Orec::version_of(p) > tx.start_time) {
      // A commit since we started; the read set may still be valid.
      extend(tx, Orec::version_of(p));
      continue;
    }
    if (o.try_lock(p, &tx)) {
      tx.wlocks.push_back(OwnedOrec{&o, Orec::version_of(p)});
      return;
    }
    // Lost the CAS race; re-examine the orec.
  }
}

template <OrecLocking Locking, OrecLogging Logging>
void OrecEngine<Locking, Logging>::write(TxThread& tx, Word* addr,
                                         Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  if constexpr (kEager) {
    acquire(tx, orecs_.for_address(addr), ConflictKind::kWriteLocked);
  }
  if constexpr (kRedo) {
    tx.wset.insert(addr, value);
  } else {
    // Write-through: save the old value, then update memory in place (the
    // covering orec is locked by us across this point, so no reader can
    // observe the speculative store).
    VOTM_SCHED_POINT(kStmCommitWriteback);
    tx.vlog.push(addr, load_word(addr));
    store_word(addr, value);
  }
}

template <OrecLocking Locking, OrecLogging Logging>
void OrecEngine<Locking, Logging>::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  deadline_poll(tx);
  if constexpr (kEager) cm_owner_poll(tx, cm_);
  if (tx.read_only) {
    // RO fast path: consistent as of start_time by the incremental
    // validation/extension discipline; zero clock traffic, and no
    // write-set reset — a read-only transaction never touched it.
    tx.rlog.clear();
    return;
  }
  if (kEager ? tx.wlocks.empty() : tx.wset.empty()) {
    tx.clear_logs();
    return;
  }
  // Availability fault: a spurious commit failure before the clock ticket
  // (and, for commit-time locking, before any lock is taken), where
  // rollback is still clean.
  if (commit_tail_fault<Locking, Logging>()) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  if constexpr (kEager) {
    VOTM_SCHED_POINT(kStmCommitLock);
  } else {
    // Acquire all write locks now. A foreign lock or a version newer than
    // our snapshot kills the transaction here — the rollback path releases
    // whatever was acquired so far.
    for (const WriteSet::Entry& e : tx.wset.entries()) {
      Orec& o = orecs_.for_address(e.addr);
      VOTM_SCHED_POINT(kStmCommitLock);
      // Between per-orec acquisitions is the only window where this
      // variant holds locks others may be parked on; poll the yield
      // demand here.
      cm_owner_poll(tx, cm_);
      acquire(tx, o, ConflictKind::kCommitFail);
    }
  }
  if constexpr (kRedo) VOTM_SCHED_POINT(kStmCommitWriteback);
  const VersionClock::Ticket ticket = clock_.tick(tx.start_time);
  // If anyone committed after we began, the read set must still be valid
  // (a failure rolls back: undo restores the in-place writes).
  if (ticket.need_validation && !read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  // No sched point from the ticket to return: the clock ticket is this
  // engine's serialization point, and the oracle's witness (writer record
  // order) is only sound if completion order equals ticket order. Nothing
  // here is observable anyway until the unlock sweep publishes the
  // versions; the commit-time acquisition window above still exposes every
  // reader-vs-locked-orec interleaving.
  if (mvcc_) {
    // Retire the pre-commit values into the stripe rings (before the
    // write-back overwrites them; under undo, the first undo-log entry per
    // address), refreshing the recycling horizon from the quiescence slots
    // every EngineConfig::mvcc_horizon_refresh commits — and immediately
    // when a push had to lap a live entry, which bounds the stale-horizon
    // window to one lapped commit (kEpochStaleHorizon injects exactly that
    // staleness to test the window; recycling is a policy, so a stale
    // bound is never unsafe).
    if ((mvcc_commits_.fetch_add(1, std::memory_order_relaxed) &
         horizon_mask_) == 0 &&
        !VOTM_FAULT(kEpochStaleHorizon)) {
      rings_->set_horizon(clock_.quiescence_horizon());
    }
    const bool lapped =
        kRedo ? mvcc_publish_redo(*rings_, orecs_, tx, ticket.end_time)
              : mvcc_publish_undo(*rings_, orecs_, tx, ticket.end_time);
    if (lapped && !VOTM_FAULT(kEpochStaleHorizon)) {
      rings_->set_horizon(clock_.quiescence_horizon());
    }
  }
  if constexpr (kRedo) {
    for (const WriteSet::Entry& e : tx.wset.entries()) {
      store_word(e.addr, e.value);
    }
  }
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(ticket.end_time);
  }
  clock_.note_commit(ticket.end_time);
  tx.clear_logs();
}

template <OrecLocking Locking, OrecLogging Logging>
void OrecEngine<Locking, Logging>::rollback(TxThread& tx) {
  VOTM_SCHED_POINT(kStmRollback);
  if constexpr (!kRedo) {
    // Restore memory in reverse write order (later writes undone first, so
    // multiple writes to one address net out to the original value), THEN
    // release the orecs — readers must not see restored values as
    // committed until the locks drop.
    const auto& undo = tx.vlog.entries();
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      store_word(const_cast<Word*>(it->addr), it->value);
    }
    tx.vlog.clear();
  }
  // Release held locks, restoring the pre-lock versions (under redo the
  // log was never applied, so memory is untouched).
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(w.old_version);
  }
  tx.wlocks.clear();
}

template class OrecEngine<OrecLocking::kEncounter, OrecLogging::kRedo>;
template class OrecEngine<OrecLocking::kCommit, OrecLogging::kRedo>;
template class OrecEngine<OrecLocking::kEncounter, OrecLogging::kUndo>;

}  // namespace votm::stm
