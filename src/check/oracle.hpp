// History recording and correctness oracles for votm-check.
//
// The STM scenarios log every transactional event (begin, read with the
// observed value, write, commit/abort) through a HistoryRecorder. Because
// the cooperative scheduler runs one thread at a time and the engines
// carry no sched point between commit publication and the scenario's
// commit record (sched_point.hpp documents the rule), the order in which
// writer commits are recorded IS a valid serialization witness. The
// opacity check is then polynomial instead of a permutation search:
//
//   * replay committed writers in record order over the initial state,
//     producing states S_0 (initial), S_1, ..., S_W;
//   * every transaction T — committed, aborted, read-only or writer —
//     must have ALL its (non own-write) reads satisfied by a single S_k:
//     a consistent snapshot, the heart of opacity. Aborted transactions
//     are checked too: that is what separates opacity from plain
//     serializability (a doomed zombie must never see a frankenstate);
//   * k is bounded below by the number of writer commits recorded before
//     T began (T cannot read the past: those writes were published before
//     its begin), and a committed WRITER is pinned to k = its own
//     position - 1 — anything else is a lost update;
//   * reads satisfied from the transaction's own write set must return
//     exactly the value it wrote (checked at record time);
//   * after the run, memory itself must equal S_W (write-back fidelity).
//
// Violations carry a human-readable description; the exploration driver
// (explore.hpp) attaches the failing seed + schedule as a one-line
// reproducer.
//
// Clock-policy independence: the witness is value-based and never looks at
// engine timestamps, so it is sound unchanged under every VersionClock
// policy (stm/clock.hpp) — GV5's future timestamps (commit stamps ahead
// of the global clock) included.
// What the policies must preserve is only the record-order rule above:
// VersionClock::tick() keeps its sched point BEFORE the ticket RMW, so
// the publication-to-record window stays atomic.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "stm/logs.hpp"

namespace votm::check {

struct Violation {
  std::string what;
};

struct ReadEvent {
  unsigned var;
  stm::Word value;
  bool own;  // satisfied from the transaction's own write set
};

struct TxRecord {
  unsigned thread = 0;
  // Writer commits fully recorded before this attempt began: the snapshot
  // index lower bound.
  std::size_t begin_commits = 0;
  bool committed = false;
  bool writer = false;
  // Position in the committed-writer order (writers only, 0-based).
  std::size_t commit_pos = 0;
  std::vector<ReadEvent> reads;
  std::vector<std::pair<unsigned, stm::Word>> writes;  // program order
};

class HistoryRecorder {
 public:
  explicit HistoryRecorder(unsigned n_threads) : active_(n_threads) {}

  void begin(unsigned thread);
  void read(unsigned thread, unsigned var, stm::Word value, bool own);
  void write(unsigned thread, unsigned var, stm::Word value);
  void commit(unsigned thread);
  void abort(unsigned thread);

  // Call only after every worker has finished.
  const std::vector<TxRecord>& records() const noexcept { return done_; }
  std::size_t commits() const noexcept { return commits_; }
  std::size_t aborts() const noexcept { return aborts_; }

 private:
  // The mutex is uncontended under cooperative scheduling (one runner at
  // a time) and keeps the recorder safe in the free-run fallback.
  std::mutex mu_;
  std::vector<TxRecord> active_;   // per-thread in-flight attempt
  std::vector<TxRecord> done_;
  std::size_t writer_commits_ = 0;
  std::size_t commits_ = 0;
  std::size_t aborts_ = 0;
};

// Opacity / strict-serializability check of a recorded history.
// `final_memory[v]` is the quiescent post-run value of variable v;
// `initial[v]` its pre-run value.
std::optional<Violation> check_opacity(const std::vector<TxRecord>& records,
                                       const std::vector<stm::Word>& initial,
                                       const std::vector<stm::Word>& final_memory);

}  // namespace votm::check
