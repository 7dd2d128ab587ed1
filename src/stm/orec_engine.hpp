// The orec engine family: one ownership-record protocol, three corners of
// the RSTM/TinySTM design space selected at compile time.
//
// Every variant shares the metadata (a per-instance table of ownership
// records — lock bit + owner pointer, or version — plus a VersionClock),
// versioned reads with TinySTM-style timestamp extension, one lock
// acquisition loop and one ticket -> validate -> MVCC publish -> unlock
// commit tail. Two policies pick the rest:
//
//   OrecLocking::kEncounter  acquire the covering orec at first write; a
//                            reader or writer that meets a foreign lock
//                            aborts itself (after the CM hook) — the
//                            aggressive policy under which the paper
//                            observes livelock at high contention (Tables
//                            III and V, Q >= 16).
//   OrecLocking::kCommit     buffer writes and acquire every orec at commit
//                            (TL2-style); locks are held only across the
//                            short commit window, so readers wait them out
//                            instead of aborting.
//   OrecLogging::kRedo       writes go to the redo log (tx.wset) and are
//                            written back at commit.
//   OrecLogging::kUndo       writes go in place after saving the old value
//                            to an undo log (tx.vlog): cheap commits,
//                            expensive aborts — the sharpest setting for
//                            RAC's thesis, since every avoided doomed
//                            transaction also saves the undo pass.
//
// Commit-time locking with in-place writes is not a protocol: a write
// through an unlocked orec would expose a speculative value to every
// reader, so that combination is rejected at compile time.
//
// The three instantiations keep their historical names (DESIGN.md §22):
// OrecEagerRedo (the paper's engine), OrecLazy and OrecEagerUndo.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/mvcc.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

enum class OrecLocking : std::uint8_t { kEncounter, kCommit };
enum class OrecLogging : std::uint8_t { kRedo, kUndo };

template <OrecLocking Locking, OrecLogging Logging>
class OrecEngine final : public TxEngine {
  static_assert(!(Locking == OrecLocking::kCommit &&
                  Logging == OrecLogging::kUndo),
                "commit-time locking cannot write in place: the store would "
                "land under an unlocked orec");

  static constexpr bool kEager = Locking == OrecLocking::kEncounter;
  static constexpr bool kRedo = Logging == OrecLogging::kRedo;

 public:
  // `orec_table` keeps accepting a bare size (OrecTableConfig converts
  // implicitly) so pre-granularity call sites read unchanged; the rings
  // are sized from the constructed table so the stripe spaces coincide at
  // every granularity/layout setting.
  explicit OrecEngine(
      OrecTableConfig orec_table = {},
      ClockPolicy clock_policy = ClockPolicy::kGv1, bool mvcc = false,
      std::size_t mvcc_ring_depth = OrecVersionRings::kDefaultDepth,
      std::uint32_t mvcc_horizon_refresh =
          OrecVersionRings::kHorizonRefreshPushes,
      CmRuntime cm = {})
      : clock_(clock_policy),
        orecs_(orec_table),
        mvcc_(mvcc),
        rings_(mvcc ? std::make_unique<OrecVersionRings>(orecs_.size(),
                                                         mvcc_ring_depth)
                    : nullptr),
        horizon_mask_(horizon_refresh_mask(mvcc_horizon_refresh)),
        cm_(cm) {}

  const char* name() const noexcept override {
    if constexpr (!kEager) return "OrecLazy";
    if constexpr (!kRedo) return "OrecEagerUndo";
    return "OrecEagerRedo";
  }

  void begin(TxThread& tx) override;
  Word read(TxThread& tx, const Word* addr) override;
  void write(TxThread& tx, Word* addr, Word value) override;
  void commit(TxThread& tx) override;
  void rollback(TxThread& tx) override;

  // Memory-order contract lives at VersionClock::read().
  std::uint64_t clock() const noexcept { return clock_.read(); }
  const VersionClock& version_clock() const noexcept { return clock_; }
  OrecTable& orec_table() noexcept { return orecs_; }
  bool mvcc() const noexcept { return mvcc_; }
  OrecVersionRings* version_rings() noexcept { return rings_.get(); }

  // Grace-period reclamation hooks (stm/epoch.hpp, DESIGN.md §17). The
  // retire stamp must dominate the calling thread's just-published commit
  // even under GV5, where end times run ahead of the raw clock — hence
  // the max with the thread's own quiescence slot.
  std::uint64_t retire_stamp() noexcept override {
    const std::uint64_t own = clock_.last_commit(thread_ordinal());
    const std::uint64_t global = clock_.read();
    return own > global ? own : global;
  }
  std::uint64_t version_horizon() noexcept override {
    return clock_.quiescence_horizon();
  }
  void retire_versions_below(std::uint64_t bound) noexcept override {
    if (rings_) rings_->retire_below(bound);
  }

 private:
  // Validates the orec read log; returns false if any orec is foreign-locked
  // or has advanced past `bound`.
  bool read_log_valid(TxThread& tx, std::uint64_t bound) const noexcept;

  // Timestamp extension (TinySTM-style): re-validate and move start_time
  // forward; aborts via tx.conflict() when validation fails. `observed` is
  // the orec version that forced the extension (may exceed the global
  // clock under GV5; see VersionClock::extension_bound).
  void extend(TxThread& tx, std::uint64_t observed);

  // MVCC-lite read fallback (stm/mvcc.hpp): serve a read-only transaction
  // from the stripe ring at tx.start_time, pinning the snapshot on a hit.
  // Returns true with *out set; false = no covering entry (caller falls
  // back, or conflicts if already pinned).
  bool mvcc_read(TxThread& tx, std::size_t stripe, const Word* addr,
                 Word* out) noexcept;

  // Locks `o` for `tx` (a no-op if `tx` already owns it), recording the
  // pre-lock version for rollback. A foreign lock goes to the CM hook and
  // otherwise aborts with `kind`: kWriteLocked at encounter time,
  // kCommitFail in the commit-time acquisition sweep. Always inlined: it
  // is OrecEagerRedo's write barrier, which the paper's benchmarks run.
  [[gnu::always_inline]] inline void acquire(TxThread& tx, Orec& o,
                                             ConflictKind kind);

  VersionClock clock_;
  OrecTable orecs_;
  const bool mvcc_;
  std::unique_ptr<OrecVersionRings> rings_;  // allocated iff mvcc_
  std::atomic<std::uint32_t> mvcc_commits_{0};  // horizon-refresh pacing
  const std::uint32_t horizon_mask_;  // EngineConfig::mvcc_horizon_refresh
  // Contention management (stm/contention.hpp): wait/abort mode, spin
  // budget and the victim-choice policy bundle (DESIGN.md §§19-20).
  const CmRuntime cm_;
};

using OrecEagerRedoEngine =
    OrecEngine<OrecLocking::kEncounter, OrecLogging::kRedo>;
using OrecLazyEngine = OrecEngine<OrecLocking::kCommit, OrecLogging::kRedo>;
using OrecEagerUndoEngine =
    OrecEngine<OrecLocking::kEncounter, OrecLogging::kUndo>;

extern template class OrecEngine<OrecLocking::kEncounter, OrecLogging::kRedo>;
extern template class OrecEngine<OrecLocking::kCommit, OrecLogging::kRedo>;
extern template class OrecEngine<OrecLocking::kEncounter, OrecLogging::kUndo>;

}  // namespace votm::stm
