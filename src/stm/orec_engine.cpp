#include "stm/orec_engine.hpp"

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"

namespace votm::stm {

void OrecEagerRedoEngine::begin(TxThread& tx) {
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
    tx.start_time = clock_.read();
  }
  begin_common(tx, this);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

bool OrecEagerRedoEngine::read_log_valid(TxThread& tx,
                                         std::uint64_t bound) const noexcept {
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

void OrecEagerRedoEngine::extend(TxThread& tx, std::uint64_t observed) {
  VOTM_SCHED_POINT(kStmValidate);
  deadline_poll(tx);
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

bool OrecEagerRedoEngine::mvcc_read(TxThread& tx, std::size_t stripe,
                                    const Word* addr, Word* out) noexcept {
  if (!rings_->lookup(stripe, addr, tx.start_time, out)) return false;
  // Consuming a retained value fixes the snapshot: a later extension would
  // move start_time past this value's window. All further slipped commits
  // must be served by the rings too, or the transaction conflicts.
  tx.snapshot_pinned = true;
  ++tx.mvcc_snapshot_reads;
  return true;
}

Word OrecEagerRedoEngine::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode runs alone in a drained view: plain access, no logging.
  if (tx.serial) return load_word(addr);
  if (const Word* buffered = tx.wset.lookup(addr)) return *buffered;
  const std::size_t stripe = orecs_.index_for(addr);
  Orec& o = orecs_.at(stripe);
  for (;;) {
    const Orec::Packed before = o.load();
    if (Orec::is_locked(before)) {
      // Our own lock over an aliased address not in the redo log: memory
      // holds the pre-tx value.
      if (Orec::owner_of(before) == &tx) return load_word(addr);
      // MVCC-lite: a read-only transaction may still find its snapshot's
      // value in the stripe ring even while a writer holds the lock.
      if (mvcc_ && tx.read_only) {
        Word retained;
        if (mvcc_read(tx, stripe, addr, &retained)) return retained;
      }
      // Wait-CM: park on the lock holder's orec (bounded) when enabled;
      // a changed word means the lock moved and the protocol can re-run
      // instead of aborting.
      if (cm_wait_orec(tx, o, before, cm_)) continue;
      // Aggressive self-abort on foreign lock: the paper's configuration,
      // and the source of livelock at high contention.
      tx.conflict(ConflictKind::kReadLocked);
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

void OrecEagerRedoEngine::acquire(TxThread& tx, Orec& o) {
  for (;;) {
    const Orec::Packed p = o.load();
    if (Orec::is_locked(p)) {
      if (Orec::owner_of(p) == &tx) return;  // already ours (or aliased)
      // Wait-CM at the foreign lock. We may already hold locks, so the
      // ordinal rule inside cm_wait_orec gates the wait.
      if (cm_wait_orec(tx, o, p, cm_)) continue;
      tx.conflict(ConflictKind::kWriteLocked);
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

void OrecEagerRedoEngine::write(TxThread& tx, Word* addr, Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  acquire(tx, orecs_.for_address(addr));
  tx.wset.insert(addr, value);
}

void OrecEagerRedoEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  deadline_poll(tx);
  if (tx.read_only) {
    // RO fast path: consistent as of start_time by the incremental
    // validation/extension discipline; zero clock traffic, and no
    // write-set reset — a read-only transaction never touched it.
    tx.rlog.clear();
    return;
  }
  if (tx.wlocks.empty()) {
    tx.clear_logs();
    return;
  }
  // Availability fault: a spurious commit failure before the clock ticket,
  // where rollback is still clean.
  if (VOTM_FAULT(kOrecEagerRedoCommitTail)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  VOTM_SCHED_POINT(kStmCommitLock);
  const VersionClock::Ticket ticket = clock_.tick(tx.start_time);
  // If anyone committed after we began, the read set must still be valid.
  if (ticket.need_validation && !read_log_valid(tx, tx.start_time)) {
    tx.conflict(ConflictKind::kCommitFail);
  }
  // No sched point from the ticket to return: the clock ticket is this
  // engine's serialization point, and the oracle's witness (writer record
  // order) is only sound if completion order equals ticket order. Nothing
  // here is observable anyway until the unlock sweep publishes the
  // versions.
  if (mvcc_) {
    // Retire the pre-commit values into the stripe rings (before the
    // write-back overwrites them), refreshing the recycling horizon from
    // the quiescence slots every kHorizonRefreshPushes commits — and
    // immediately when a push had to lap a live entry, which bounds the
    // stale-horizon window to one lapped commit (kEpochStaleHorizon
    // injects exactly that staleness to test the window; recycling is a
    // policy, so a stale bound is never unsafe).
    if ((mvcc_commits_.fetch_add(1, std::memory_order_relaxed) &
         (OrecVersionRings::kHorizonRefreshPushes - 1)) == 0 &&
        !VOTM_FAULT(kEpochStaleHorizon)) {
      rings_->set_horizon(clock_.quiescence_horizon());
    }
    if (mvcc_publish_redo(*rings_, orecs_, tx, ticket.end_time) &&
        !VOTM_FAULT(kEpochStaleHorizon)) {
      rings_->set_horizon(clock_.quiescence_horizon());
    }
  }
  for (const WriteSet::Entry& e : tx.wset.entries()) {
    store_word(e.addr, e.value);
  }
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(ticket.end_time);
  }
  clock_.note_commit(ticket.end_time);
  tx.clear_logs();
}

void OrecEagerRedoEngine::rollback(TxThread& tx) {
  VOTM_SCHED_POINT(kStmRollback);
  // Release held locks, restoring the pre-lock versions (the redo log was
  // never applied, so memory is untouched).
  for (const OwnedOrec& w : tx.wlocks) {
    w.orec->unlock_to_version(w.old_version);
  }
  tx.wlocks.clear();
}

}  // namespace votm::stm
