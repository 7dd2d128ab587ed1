// Shared cell machinery for the interleaved A/B microbenches (micro_clock,
// micro_granularity, micro_cm): one timed multi-thread span per repeat,
// and the median / interquartile-range summary of a cell's repeats.
//
// Throughput is commits per CPU-second (CLOCK_THREAD_CPUTIME_ID summed over
// workers), so timeslice/steal noise on small hosts cancels. The benches
// run a cell's variants back to back inside each repeat, so host drift
// lands on all of them. micro_clock and micro_granularity report each
// variant's median repeat with the IQR next to it: best-of would crown
// whichever repeat dodged the noise and hide how wide the spread is.
// Ratios are taken per repeat (variant and baseline from the same repeat)
// before their median is reported. (micro_cm pools its repeats instead;
// see its header.)
#pragma once

#include <ctime>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/barrier.hpp"
#include "util/cycles.hpp"
#include "util/stats.hpp"

namespace votm::bench {

// Median and quartiles of a sample (linear interpolation between ranks).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Spread spread_of(const std::vector<double>& xs) {
  return Spread{percentile(xs, 50), percentile(xs, 25), percentile(xs, 75)};
}

struct CellResult {
  std::string workload;
  unsigned threads = 0;
  std::string variant;
  std::uint64_t commits = 0;
  // One repeat's values, or the median over repeats after summarize().
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double tx_per_sec = 0.0;  // commits / cpu_seconds
  Spread tx;                // tx_per_sec over the repeats
  // Per-repeat series in run order, for paired ratios.
  std::vector<double> rep_tx;
  std::vector<double> rep_wall;
};

// Collapses one variant's repeats into its median row.
inline CellResult summarize(const std::vector<CellResult>& reps) {
  CellResult s = reps.front();
  std::vector<double> walls;
  std::vector<double> cpus;
  s.rep_tx.clear();
  for (const CellResult& r : reps) {
    walls.push_back(r.wall_seconds);
    cpus.push_back(r.cpu_seconds);
    s.rep_tx.push_back(r.tx_per_sec);
  }
  s.rep_wall = walls;
  s.wall_seconds = percentile(walls, 50);
  s.cpu_seconds = percentile(cpus, 50);
  s.tx = spread_of(s.rep_tx);
  s.tx_per_sec = s.tx.median;
  return s;
}

// Per-repeat speedup of `r` over `base` in commits per CPU-second.
inline Spread cpu_speedup(const CellResult& r, const CellResult& base) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < r.rep_tx.size() && i < base.rep_tx.size();
       ++i) {
    if (base.rep_tx[i] > 0) xs.push_back(r.rep_tx[i] / base.rep_tx[i]);
  }
  return spread_of(xs);
}

// Per-repeat speedup of `r` over `base` in wall-clock time (same commits).
inline Spread wall_speedup(const CellResult& r, const CellResult& base) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < r.rep_wall.size() && i < base.rep_wall.size();
       ++i) {
    if (r.rep_wall[i] > 0) xs.push_back(base.rep_wall[i] / r.rep_wall[i]);
  }
  return spread_of(xs);
}

inline const CellResult* find(const std::vector<CellResult>& rs,
                              const std::string& workload, unsigned threads,
                              const std::string& variant) {
  for (const CellResult& r : rs) {
    if (r.workload == workload && r.threads == threads &&
        r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Runs body(tid) on `threads` workers released together; one repeat's row.
template <typename WorkerBody>
CellResult run_span(const std::string& workload, unsigned threads,
                    const std::string& variant, std::uint64_t txs_per_thread,
                    WorkerBody&& body) {
  StartBarrier barrier(threads + 1);
  std::vector<std::uint64_t> start_cycles(threads, 0);
  std::vector<std::uint64_t> end_cycles(threads, 0);
  std::vector<double> cpu_seconds(threads, 0.0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      barrier.arrive_and_wait();
      const double cpu0 = thread_cpu_seconds();
      start_cycles[t] = rdcycles();
      body(t);
      end_cycles[t] = rdcycles();
      cpu_seconds[t] = thread_cpu_seconds() - cpu0;
      barrier.arrive_and_wait();
    });
  }
  barrier.arrive_and_wait();
  barrier.arrive_and_wait();
  for (auto& th : pool) th.join();

  std::uint64_t first_start = start_cycles[0];
  std::uint64_t last_end = end_cycles[0];
  double cpu_total = cpu_seconds[0];
  for (unsigned t = 1; t < threads; ++t) {
    first_start = std::min(first_start, start_cycles[t]);
    last_end = std::max(last_end, end_cycles[t]);
    cpu_total += cpu_seconds[t];
  }

  CellResult r;
  r.workload = workload;
  r.threads = threads;
  r.variant = variant;
  r.commits = txs_per_thread * threads;
  r.wall_seconds = last_end > first_start
                       ? static_cast<double>(last_end - first_start) /
                             cycles_per_second()
                       : 0.0;
  r.cpu_seconds = cpu_total;
  r.tx_per_sec =
      r.cpu_seconds > 0 ? static_cast<double>(r.commits) / r.cpu_seconds : 0.0;
  return r;
}

}  // namespace votm::bench
