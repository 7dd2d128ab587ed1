// NOrec: commit-time locking STM with value-based validation and no
// ownership records (Dalessandro, Spear, Scott — PPoPP 2010).
//
// The only shared metadata is one sequence lock per instance ("the global
// clock" in the paper's terminology). This is precisely why the paper's
// Tables VII-X show multi-view VOTM helping NOrec even with RAC inactive:
// each view's NOrecEngine carries its own sequence lock, so partitioning
// the data partitions the metadata contention (paper Sec. III-D).
//
// Write-signature broadcast (validation filtering): stock NOrec re-runs
// full value-based validation over the whole read log on EVERY interleaved
// commit — O(reads) work per commit that slips in, paid by every reader.
// Here a committer additionally publishes a 256-bit signature of its write
// set into a small ring of (seq, signature) slots while it holds the
// sequence lock. A validating reader intersects its read-set signature
// with the signatures of exactly the commits that landed since its
// snapshot: if every intersection is empty, none of those commits wrote
// anything the reader read, value validation would trivially pass, and the
// scan is skipped. Any overlap, an overwritten slot, or a ring wrap falls
// back to the unchanged values_match() scan, so correctness is identical
// (signatures have false positives, never false negatives). The knob is
// runtime (`commit_filters` ctor arg) so bench/micro_validation can A/B
// both modes in one binary; the compile-time default follows the
// VOTM_VALIDATION_FILTERS CMake option.
//
// MVCC-lite (runtime `mvcc` ctor arg; stm/mvcc.hpp, DESIGN.md §16): a
// committing writer additionally publishes a bounded (addr, old value) log
// into a global CommitLogRing while it holds the sequence lock. A
// read-only transaction whose value validation would fail PINS its
// snapshot instead of aborting and serves every later read by rewinding
// the current memory value through the logged commits — so long readers
// survive slipped commits. Unreconstructable reads (ring lapped, oversized
// commit, serial-mode bump) conflict exactly as before.
#pragma once

#include <array>
#include <atomic>
#include <memory>

#include "stm/clock.hpp"
#include "stm/engine.hpp"
#include "stm/mvcc.hpp"
#include "stm/signature.hpp"
#include "util/cacheline.hpp"

namespace votm::stm {

class NOrecEngine final : public TxEngine {
 public:
  explicit NOrecEngine(bool commit_filters = kValidationFiltersDefault,
                       bool mvcc = false)
      : filters_(commit_filters),
        mvcc_(mvcc),
        commit_log_(mvcc ? std::make_unique<CommitLogRing>() : nullptr) {}

  const char* name() const noexcept override { return "NOrec"; }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

  // Irrevocable mode: acquires the sequence lock (odd) for the whole
  // transaction, so reads and writes go straight to memory and commit is a
  // single release store. See DESIGN.md §14.
  void begin_serial(TxThread& tx) override;
  void end_serial(TxThread& tx) override;

  // Exposed for tests and the metadata-contention microbench.
  std::uint64_t sequence() const noexcept {
    return seqlock_.value.load(std::memory_order_relaxed);
  }
  bool commit_filters() const noexcept { return filters_; }
  bool mvcc() const noexcept { return mvcc_; }
  CommitLogRing* commit_log() noexcept { return commit_log_.get(); }

  // Grace-period reclamation hooks (stm/epoch.hpp, DESIGN.md §17). NOrec
  // has no version clock; its commit-clock domain is the sequence lock.
  // A relaxed load is a sound upper bound on the calling thread's own
  // just-published commit (the sequence is monotone and the caller's
  // release store is program-ordered before this).
  std::uint64_t retire_stamp() noexcept override { return sequence(); }
  // Commit-activity quiescence over the sequence-lock domain, tracked by
  // a dedicated slot clock fed from the writer commit tail (note_commit
  // is a load + release store, no RMW — see VersionClock). Steers
  // CommitLogRing recycling decisions only; never a safety gate.
  std::uint64_t version_horizon() noexcept override {
    return quiesce_.quiescence_horizon();
  }
  void retire_versions_below(std::uint64_t bound) noexcept override {
    if (commit_log_) commit_log_->retire_below(bound);
  }

 private:
  // One broadcast slot: the even sequence value a commit published, plus
  // that commit's write-set signature. Slot writes happen under the global
  // sequence lock (at most one writer at a time); readers race only with
  // later committers re-using the slot, detected by the seqlock-style
  // stamp protocol in commits_disjoint()/publish_signature(). Each slot
  // owns a cache line: a reader scanning the ring must not false-share
  // with the committer stamping the neighbouring slot.
  struct alignas(kCacheLine) SigSlot {
    std::atomic<std::uint64_t> seq{0};  // 0 = never written / mid-update
    std::array<std::atomic<std::uint64_t>, SigFilter::kWords> sig{};
  };
  static constexpr std::size_t kSigRingSlots = 64;  // power of two

  // Re-validates tx's read log until a consistent even snapshot is found;
  // calls tx.conflict() if any logged value changed — unless the
  // transaction is read-only and mvcc is on, in which case a failed value
  // scan PINS the snapshot (tx.snapshot_pinned) and returns it unchanged:
  // the already-logged values stay the consistent state at tx.snapshot,
  // and read() serves everything later via snapshot_read().
  std::uint64_t validate(TxThread& tx);

  // Pinned-snapshot read: reconstructs the value of addr at tx.snapshot
  // from the commit-log ring; conflicts if any needed slot is gone.
  Word snapshot_read(TxThread& tx, const Word* addr);

  // True if every commit in (since, upto] (even sequence values) has a
  // readable ring slot whose write signature is disjoint from `reads`.
  // False means "don't know": fall back to value validation.
  bool commits_disjoint(std::uint64_t since, std::uint64_t upto,
                        const SigFilter& reads) const noexcept;

  // Publishes `sig` for the commit that will bump the sequence lock to
  // `commit_seq`. Caller must hold the sequence lock (odd).
  void publish_signature(std::uint64_t commit_seq,
                         const SigFilter& sig) noexcept;

  // Even = unlocked; a committing writer holds it odd during write-back.
  CacheLinePadded<std::atomic<std::uint64_t>> seqlock_{};
  const bool filters_;
  const bool mvcc_;
  std::unique_ptr<CommitLogRing> commit_log_;  // allocated iff mvcc_
  std::array<SigSlot, kSigRingSlots> ring_{};
  // Per-thread quiescence slots over the sequence-lock domain (used only
  // for note_commit/quiescence_horizon; the clock itself stays the
  // seqlock). Feeds version_horizon() for commit-log recycling.
  VersionClock quiesce_{ClockPolicy::kGv1};
};

}  // namespace votm::stm
