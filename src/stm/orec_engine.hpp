// OrecEagerRedo: the paper's orec engine (RSTM's OrecEagerRedo).
//
// A per-instance table of ownership records (lock bit + owner pointer, or
// version) plus a VersionClock. Reads are versioned with TinySTM-style
// timestamp extension. A write acquires the covering orec at first touch
// (encounter-time locking) and buffers the value in the redo log (tx.wset);
// a reader or writer that meets a foreign lock aborts itself (after the CM
// hook), the aggressive policy under which the paper observes livelock at
// high contention (Tables III and V, Q >= 16). Commit takes a clock ticket,
// validates the read log if anyone committed since begin, publishes to the
// MVCC rings, writes the redo log back and unlocks.
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

class OrecEagerRedoEngine final : public TxEngine {
 public:
  // `orec_table` keeps accepting a bare size (OrecTableConfig converts
  // implicitly) so pre-granularity call sites read unchanged; the rings
  // are sized from the constructed table so the stripe spaces coincide at
  // every granularity/layout setting.
  explicit OrecEagerRedoEngine(
      OrecTableConfig orec_table = {},
      ClockPolicy clock_policy = ClockPolicy::kGv1, bool mvcc = false,
      std::size_t mvcc_ring_depth = OrecVersionRings::kDefaultDepth,
      CmRuntime cm = {})
      : clock_(clock_policy),
        orecs_(orec_table),
        mvcc_(mvcc),
        rings_(mvcc ? std::make_unique<OrecVersionRings>(orecs_.size(),
                                                         mvcc_ring_depth)
                    : nullptr),
        cm_(cm) {}

  const char* name() const noexcept override { return "OrecEagerRedo"; }

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
  // otherwise aborts with kWriteLocked. Always inlined: it is the write
  // barrier, which the paper's benchmarks run.
  [[gnu::always_inline]] inline void acquire(TxThread& tx, Orec& o);

  VersionClock clock_;
  OrecTable orecs_;
  const bool mvcc_;
  std::unique_ptr<OrecVersionRings> rings_;  // allocated iff mvcc_
  std::atomic<std::uint32_t> mvcc_commits_{0};  // horizon-refresh pacing
  // Wait-based contention management (stm/contention.hpp, DESIGN.md §19):
  // wait/abort mode and spin budget.
  const CmRuntime cm_;
};

}  // namespace votm::stm
