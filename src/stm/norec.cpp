#include "stm/norec.hpp"

#include <stdexcept>
#include <thread>

#include "check/fault.hpp"
#include "check/sched_point.hpp"
#include "stm/access.hpp"

namespace votm::stm {

void NOrecEngine::begin(TxThread& tx) {
  VOTM_SCHED_POINT(kStmBegin);
  // Sample a consistent (even) snapshot; a committing writer holds the
  // sequence lock odd only for the duration of its write-back.
  auto& seq = seqlock_.value;
  int spins = 0;
  for (;;) {
    tx.snapshot = seq.load(std::memory_order_acquire);
    if ((tx.snapshot & 1) == 0) break;
    VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
    Backoff::cpu_relax();
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  // Counter hygiene for the pinned-snapshot diagnostics; writers and
  // mvcc-off transactions never touch it (see begin_common).
  if (tx.read_only && mvcc_) tx.mvcc_snapshot_reads = 0;
  begin_common(tx, this);
  // After begin_common: conflict() needs tx.engine set to roll back.
  deadline_poll(tx);
}

bool NOrecEngine::commits_disjoint(std::uint64_t since, std::uint64_t upto,
                                   const SigFilter& reads) const noexcept {
  // More commits than ring slots slipped in: some signatures are already
  // overwritten, so nothing can be proven — fall back.
  if (((upto - since) >> 1) > kSigRingSlots) return false;
  for (std::uint64_t s = since + 2; s <= upto; s += 2) {
    const SigSlot& slot = ring_[(s >> 1) & (kSigRingSlots - 1)];
    // Seqlock-style read: the payload is only trusted when the stamp reads
    // `s` both before and after — a concurrent committer re-using the slot
    // zeroes the stamp first, so a half-updated signature cannot pass.
    if (slot.seq.load(std::memory_order_acquire) != s) return false;
    SigFilter::Words words;
    for (std::size_t i = 0; i < SigFilter::kWords; ++i) {
      words[i] = slot.sig[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != s) return false;
    // Overlap with the read set: that commit may have written something we
    // read, so value validation must run. The fault switch models a buggy
    // filter that treats overlap as disjoint — the opacity oracle must
    // catch it (see test_schedules.cpp).
    if (!VOTM_FAULT(kNorecSkipFilterFallback) &&
        SigFilter::from_words(words).intersects(reads)) {
      return false;
    }
  }
  return true;
}

void NOrecEngine::publish_signature(std::uint64_t commit_seq,
                                    const SigFilter& sig) noexcept {
  SigSlot& slot = ring_[(commit_seq >> 1) & (kSigRingSlots - 1)];
  // Invalidate, publish payload, re-stamp (seqlock write protocol). The
  // global sequence lock is held odd here, so slot writers never race each
  // other; the fences order the update against concurrent ring readers.
  slot.seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < SigFilter::kWords; ++i) {
    slot.sig[i].store(sig.words()[i], std::memory_order_relaxed);
  }
  slot.seq.store(commit_seq, std::memory_order_release);
}

std::uint64_t NOrecEngine::validate(TxThread& tx) {
  VOTM_SCHED_POINT(kStmValidate);
  deadline_poll(tx);
  auto& seq = seqlock_.value;
  for (;;) {
    std::uint64_t time = seq.load(std::memory_order_acquire);
    if ((time & 1) != 0) {
      VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
      Backoff::cpu_relax();
      // The writer wait-out has no other bound; keep it deadline-capped.
      deadline_poll(tx);
      continue;
    }
    if (time == tx.snapshot) return time;  // nothing committed since
    if (filters_) {
      // Filter fast path: if every commit in (snapshot, time] has a write
      // signature disjoint from our read signature, none of them wrote
      // anything we read — the value scan would trivially pass.
      VOTM_SCHED_POINT(kStmValidateFilter);
      if (commits_disjoint(tx.snapshot, time, tx.vlog.filter())) {
        if (seq.load(std::memory_order_acquire) == time) return time;
        continue;
      }
    }
    if (!VOTM_FAULT(kNorecSkipValidation) && !tx.vlog.values_match()) {
      // MVCC-lite: a read-only transaction pins its snapshot instead of
      // dying — the logged values ARE the consistent state at tx.snapshot
      // (they were validated there, and the mismatch only says memory has
      // moved on). read() serves all later reads via snapshot_read().
      if (mvcc_ && tx.read_only && !tx.serial) {
        tx.snapshot_pinned = true;
        return tx.snapshot;
      }
      tx.conflict(ConflictKind::kValidationFail);
    }
    if (seq.load(std::memory_order_acquire) == time) return time;
  }
}

Word NOrecEngine::snapshot_read(TxThread& tx, const Word* addr) {
  // Reads-at-a-pinned-snapshot: rewind the current value of addr through
  // every commit that landed since tx.snapshot. No vlog push — validation
  // never runs again on a pinned transaction (it is read-only, and read()
  // routes straight here), so the log is frozen as the witness of the
  // pinned snapshot.
  VOTM_SCHED_POINT(kStmMvccRead);
  auto& seq = seqlock_.value;
  int spins = 0;
  for (;;) {
    const std::uint64_t now = seq.load(std::memory_order_acquire);
    if ((now & 1) != 0) {
      VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
      Backoff::cpu_relax();
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
        deadline_poll(tx);
      }
      continue;
    }
    Word value = load_word(addr);
    const bool ok = now == tx.snapshot ||
                    commit_log_->reconstruct(addr, tx.snapshot, now, &value);
    // A committer racing the walk can fail slot stamps spuriously; only a
    // stable sequence turns a failed reconstruction into a real miss.
    if (seq.load(std::memory_order_acquire) != now) continue;
    if (!ok) tx.conflict(ConflictKind::kValidationFail);
    ++tx.mvcc_snapshot_reads;
    return value;
  }
}

Word NOrecEngine::read(TxThread& tx, const Word* addr) {
  VOTM_SCHED_POINT(kStmRead);
  // Serial mode holds the sequence lock: nothing can commit under us, so
  // the memory is the snapshot.
  if (tx.serial) return load_word(addr);
  // Reads-after-writes come from the redo log.
  if (const Word* buffered = tx.wset.lookup(addr)) {
    return *buffered;
  }
  Word value = load_word(addr);
  // The window this point opens — between the memory load and the
  // staleness re-check — is exactly where a skipped revalidation turns
  // into a torn snapshot.
  VOTM_SCHED_POINT(kStmReadRetry);
  // If anyone committed since our snapshot, the read may be inconsistent
  // with the log: re-validate (value-based or filter-skipped) and re-read
  // until stable. A pinned transaction (MVCC-lite) can never catch up to
  // the sequence lock again — its reads come from the commit-log rewind.
  while (seqlock_.value.load(std::memory_order_acquire) != tx.snapshot) {
    if (tx.snapshot_pinned) return snapshot_read(tx, addr);
    tx.snapshot = validate(tx);
    value = load_word(addr);
  }
  tx.vlog.push(addr, value);
  return value;
}

void NOrecEngine::write(TxThread& tx, Word* addr, Word value) {
  VOTM_SCHED_POINT(kStmWrite);
  if (tx.read_only) {
    tx.misuse("write inside a read-only transaction (acquire_Rview)");
  }
  // Serial mode writes in place: the transaction cannot abort, so no redo
  // buffering is needed, and the held sequence lock keeps readers out.
  if (tx.serial) {
    store_word(addr, value);
    return;
  }
  tx.wset.insert(addr, value);
}

void NOrecEngine::commit(TxThread& tx) {
  VOTM_SCHED_POINT(kStmCommit);
  // Before any publication: rollback here is trivially clean. Never after
  // the CAS below — a sequence-lock holder must finish its write-back.
  deadline_poll(tx);
  auto& seq = seqlock_.value;
  if (tx.read_only) {
    // Declared-RO fast path: skips even the write-set emptiness probe and
    // its reset — write() misuses before touching wset on an RO
    // transaction, so only the value log needs clearing. Zero clock
    // (sequence-lock) traffic either way.
    tx.vlog.clear();
    return;
  }
  if (tx.wset.empty()) {
    // Read-only: the incremental validation discipline guarantees the read
    // set was consistent at `snapshot`; nothing to publish.
    tx.vlog.clear();
    return;
  }
  // Availability fault: a spurious commit-time failure, injected before any
  // publication so rollback is trivially clean. Drives the escalation
  // ladder in the starvation campaigns.
  if (VOTM_FAULT(kNorecCommitTail)) {
    tx.conflict(ConflictKind::kValidationFail);
  }
  // Acquire the sequence lock at our snapshot (value-based revalidation on
  // every interleaved commit). The CAS expected value is a local: on
  // failure the CAS overwrites it with the observed sequence, and validate
  // must still see the last VALIDATED snapshot in tx.snapshot — otherwise
  // the commits that slipped in would be silently skipped.
  VOTM_SCHED_POINT(kStmCommitLock);
  std::uint64_t expected = tx.snapshot;
  while (!seq.compare_exchange_strong(expected, expected + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    expected = tx.snapshot = validate(tx);
  }
  tx.snapshot = expected;
  // Broadcast our write signature for the sequence value this commit will
  // publish, so readers validating against it can skip their value scans.
  if (filters_) publish_signature(tx.snapshot + 2, tx.wset.filter());
  if (mvcc_) {
    // Publish this commit's (addr, old value) log while capturing the olds
    // right before each write-back store — the wset is deduped, so one
    // pass sees each word's true pre-commit value exactly once. The slot
    // is stamped before the sequence release below, so any reader that
    // observes the new sequence also sees the finished slot.
    CommitLogRing::Publisher pub = commit_log_->begin_publish(tx.snapshot + 2);
    for (const WriteSet::Entry& e : tx.wset.entries()) {
      VOTM_SCHED_POINT(kStmCommitWriteback);
      commit_log_->record(pub, e.addr, load_word(e.addr));
      store_word(e.addr, e.value);
    }
    commit_log_->finish_publish(pub, tx.snapshot + 2);
  } else {
    for (const WriteSet::Entry& e : tx.wset.entries()) {
      VOTM_SCHED_POINT(kStmCommitWriteback);
      store_word(e.addr, e.value);
    }
  }
  // No sched point past this release: the publish-to-return window must
  // stay uninterleaved for the harness's serialization witness.
  seq.store(tx.snapshot + 2, std::memory_order_release);
  // Quiescence slot for the epoch layer's version_horizon(); one load +
  // release store, no RMW.
  quiesce_.note_commit(tx.snapshot + 2);
  tx.clear_logs();
}

void NOrecEngine::rollback(TxThread& tx) {
  // A serial transaction dying to a user exception still holds the
  // sequence lock (odd at tx.snapshot); release it or the view wedges.
  // Its in-place writes stand — serial mode has mutex semantics.
  if (tx.serial) {
    seqlock_.value.store(tx.snapshot + 2, std::memory_order_release);
    tx.serial = false;
  }
  // Otherwise nothing was published before commit; buffered state is
  // discarded by the caller via clear_logs().
}

void NOrecEngine::begin_serial(TxThread& tx) {
  // Take the sequence lock for the whole transaction. The admission drain
  // guarantees no peer is admitted in this view, but a writer that was
  // mid-commit when the token was granted may still hold the lock — spin
  // it out exactly like begin() does.
  auto& seq = seqlock_.value;
  int spins = 0;
  for (;;) {
    std::uint64_t even = seq.load(std::memory_order_acquire);
    if ((even & 1) == 0 &&
        seq.compare_exchange_weak(even, even + 1, std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      tx.snapshot = even;
      break;
    }
    VOTM_SCHED_YIELD_POINT(kStmWaitSeq);
    Backoff::cpu_relax();
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  begin_common(tx, this);
  tx.serial = true;
}

void NOrecEngine::end_serial(TxThread& tx) {
  // Release the sequence lock. The bump (snapshot+2 parity, odd→even)
  // makes concurrent snapshots taken before begin_serial revalidate, same
  // as any committed writer.
  tx.serial = false;
  seqlock_.value.store(tx.snapshot + 2, std::memory_order_release);
  quiesce_.note_commit(tx.snapshot + 2);
  tx.clear_logs();
}

}  // namespace votm::stm
