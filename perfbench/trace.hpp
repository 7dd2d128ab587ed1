// Span recording for the traced benchmark run.
//
// The driver wraps every call it makes into the library in a span: one
// `atomic` span per atomic block, whose attempts each record `view.enter`,
// `body` and `view.exit` children (plus `abort` when the attempt rolled
// back), and application-layer spans inside `body` (TxQueue::pop,
// ResourceTable::reserve, ...). Spans stay in per-thread memory and are
// digested after the round's threads have joined; a span's self time is
// its duration minus the durations of its children.
//
// The untraced run instantiates the same driver code with NoSpans, whose
// methods are empty, so the end-to-end numbers carry no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "common.hpp"
#include "core/view.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kAtomic,
  kEnter,
  kBody,
  kExit,
  kAbort,
  kQueuePop,
  kDictInsert,
  kResQuery,
  kResReserve,
  kResAdd,
  kResRetire,
  kResRelease,
  kCustAddReservation,
  kCustRemove,
  kCustAdd,
  kScan,
  kCount,
};

// Metric-name form of each span ("span.<name>.self_ns").
extern const char* const kSpanNames[static_cast<int>(SpanName::kCount)];

struct SpanRecord {
  std::uint64_t start_ns;  // since the round's start
  std::uint32_t dur_ns;
  std::uint32_t parent;    // index of the enclosing span, or kNoParent
  std::uint32_t block;     // atomic block id, shared by all its attempts
  SpanName name;
  std::uint8_t view;       // view index of the enclosing atomic block
  std::uint8_t tag;        // workload task type of the enclosing block
  bool aborted;            // belongs to an attempt that rolled back
};

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

class SpanLog {
 public:
  void reset(Clock::time_point origin) {
    origin_ = origin;
    spans_.clear();
    stack_.clear();
    tasks_.assign(tasks_.size(), 0);
    next_block_ = 0;
  }

  void begin_block(std::uint8_t view, std::uint8_t tag) {
    view_ = view;
    tag_ = tag;
    block_ = next_block_++;
    open(SpanName::kAtomic);
  }
  void end_block() { close(); }

  void open(SpanName name) {
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(SpanRecord{now_ns(), 0, parent, block_, name, view_,
                                tag_, false});
  }
  void close() {
    SpanRecord& s = spans_[stack_.back()];
    stack_.pop_back();
    const std::uint64_t d = now_ns() - s.start_ns;
    s.dur_ns = d > ~std::uint32_t{0} ? ~std::uint32_t{0}
                                     : static_cast<std::uint32_t>(d);
  }

  // First span index of the attempt about to start.
  std::size_t attempt_mark() const { return spans_.size(); }
  // The attempt that began at `mark` rolled back: close the spans it left
  // open (the rollback ran inside the innermost of them) and flag every
  // span it recorded.
  void abort_attempt(std::size_t mark) {
    while (stack_.size() > 1 && stack_.back() >= mark) close();
    for (std::size_t i = mark; i < spans_.size(); ++i) spans_[i].aborted = true;
  }

  // A task of workload type `tag` started (normalises per-task metrics).
  void count_task(std::uint8_t tag) {
    if (tag >= tasks_.size()) tasks_.resize(tag + 1, 0);
    ++tasks_[tag];
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<std::uint64_t>& tasks() const { return tasks_; }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             origin_)
            .count());
  }

  Clock::time_point origin_{};
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint64_t> tasks_;
  std::uint32_t block_ = 0;
  std::uint32_t next_block_ = 0;
  std::uint8_t view_ = 0;
  std::uint8_t tag_ = 0;
};

// Tracing off: every hook compiles away.
struct NoSpans {
  void begin_block(std::uint8_t, std::uint8_t) {}
  void end_block() {}
  void open(SpanName) {}
  void close() {}
  std::size_t attempt_mark() const { return 0; }
  void abort_attempt(std::size_t) {}
  void count_task(std::uint8_t) {}
};

// One application-layer call inside a transaction body, as a span.
template <class Log, class F>
decltype(auto) traced(Log& log, SpanName name, F&& f) {
  log.open(name);
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    log.close();
  } else {
    decltype(auto) result = f();
    log.close();
    return result;
  }
}

// Runs `body` as one atomic block on `view` through the staged
// View::enter / View::exit protocol (the one View::execute is built on),
// retrying on conflict, so admission+begin and commit+leave are timed
// apart from the body. The paper's raw configuration has no backoff, so
// the retry pause is empty unless the view was configured otherwise.
template <class Log, class Body>
void atomic_block(votm::core::View& view, Log& log, std::uint8_t view_index,
                  std::uint8_t tag, Body&& body) {
  votm::core::ThreadCtx& tc = votm::core::thread_ctx();
  votm::stm::TxThread& tx = tc.tx;
  tx.abort_mode = votm::stm::AbortMode::kThrow;
  log.begin_block(view_index, tag);
  for (;;) {
    const std::size_t mark = log.attempt_mark();
    log.open(SpanName::kEnter);
    try {
      view.enter(tc, /*read_only=*/false);
      log.close();
      log.open(SpanName::kBody);
      body();
      log.close();
      log.open(SpanName::kExit);
      view.exit(tc);
      log.close();
      break;
    } catch (const votm::stm::TxConflict&) {
      log.abort_attempt(mark);
      log.open(SpanName::kAbort);
      tx.backoff.pause();
      log.close();
    }
  }
  log.end_block();
}

// What the digest needs to know about a workload beyond its spans.
struct TraceSpec {
  std::size_t views = 0;
  // Transactional accesses made by one committed body, per view (Eigenbench
  // only; empty elsewhere).
  std::vector<double> accesses_per_commit;
  // Per-task metric names by task tag: the time spent in application-layer
  // calls of committed attempts, per task of that type.
  std::map<std::uint8_t, std::string> task_metrics;
};

struct ThreadTrace {
  const SpanLog* log;
  double wall_ns;  // the worker's own start-to-finish time
};

// Per-layer metrics of one traced round.
Metrics digest(const std::vector<ThreadTrace>& threads, const TraceSpec& spec);

}  // namespace perfbench
