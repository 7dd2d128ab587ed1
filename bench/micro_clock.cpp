// A/B harness for the commit-clock layer (stm/clock.hpp).
//
// Two questions, two groups of cells:
//
//   orec_commit (policy cells) — writer-commit throughput of one shared
//       OrecEagerUndo engine under GV1 / GV4 / GV5 / GV6 at 1/2/4/8
//       threads.
//       Each transaction blind-writes one thread-private padded cache
//       line, rotating over `lines` (default 64) of them, so the ONLY
//       shared state is TM metadata and the clock's share of the commit
//       is maximal. OrecEagerUndo is the engine with the shortest commit
//       tail (write-through: no redo-log replay between lock and clock),
//       which is exactly where a clock policy matters most; the harness
//       drives begin/write/commit directly with cycle telemetry off
//       (TxThread::collect_cycles = false, identically for every
//       policy) so the two per-transaction rdtsc reads (~30ns on the
//       reference host) don't dilute the clock's share of a sub-30ns
//       commit. The rotation is what lets GV5 amortize: a commit
//       leaves the line's orec at a future timestamp, and the next time
//       the thread returns to that line (lines transactions later) one
//       extension CAS pushes the global clock past the whole backlog —
//       ~1 global CAS per `lines` commits, versus GV1's locked RMW on
//       the shared clock line every single commit. GV4 replaces the
//       fetch_add with one CAS; uncontended (and on a single-core host,
//       where timeslices serialize the RMWs) it prices the same as GV1 —
//       its win is the pass-on-failure under real multicore contention,
//       so expect ~1.0x here and read the GV5 column for the headroom.
//       GV6 shards the clock: its commit scans the 8 shard lines and
//       CAS-maxes only its own, and its begin reads a thread-cached
//       bound behind a core-local fence instead of loading the shared
//       clock line — on a single-core host the scan + fence price
//       (against GV1's one hot-in-cache RMW) is what this cell reports;
//       the shard-lane independence it buys back is a multicore effect.
//
//   norec_meta/orec_meta shared vs split (legacy cells) — the original
//       Section III-D isolation: the same disjoint-data transactions
//       against ONE engine for all threads (TM / single-view) versus one
//       engine PER thread (multi-TM); any gap is pure metadata contention.
//
// Methodology follows bench/micro_validation.cpp: throughput is commits
// per CPU-second (CLOCK_THREAD_CPUTIME_ID, summed over workers) so
// timeslice/steal noise on small hosts cancels; repeats of one cell's
// policy variants are interleaved in time so host drift lands on all
// variants equally; the best repeat is reported. Results go to stdout and
// BENCH_clock.json (checked in as the trajectory baseline).
#include <ctime>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stm/clock.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/cycles.hpp"

namespace {

using namespace votm;
using stm::ClockPolicy;
using stm::Word;

struct CellResult {
  std::string workload;
  unsigned threads;
  std::string variant;  // clock policy, or shared/split for legacy cells
  std::uint64_t commits;
  double wall_seconds;
  double cpu_seconds;
  double tx_per_sec;  // commits / cpu_seconds
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct WorkloadParams {
  std::uint64_t txs_per_thread;
  unsigned lines;          // private cache lines each thread rotates over
  unsigned legacy_writes;  // RMWs per legacy-cell transaction
  unsigned repeats;
};

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

// --- policy cells ----------------------------------------------------------

// Thread-private write targets, one cache line per slot so distinct slots
// never share an orec-relevant line and distinct threads never share
// anything but the engine metadata.
struct PaddedLine {
  CacheLinePadded<Word> word;
};

CellResult run_policy_cell(ClockPolicy policy, unsigned threads,
                           const WorkloadParams& p) {
  stm::OrecEagerUndoEngine engine(stm::OrecTable::kDefaultSize, policy);
  std::vector<std::vector<PaddedLine>> lines(threads);
  for (auto& mine : lines) mine.resize(p.lines);
  return run_span(
      "orec_commit", threads, stm::to_string(policy), p.txs_per_thread,
      [&](unsigned tid) {
        stm::TxThread tx;
        // Telemetry off so the A/B measures the engine's commit tail, not
        // the harness's rdtsc pair; applied to every policy alike.
        tx.collect_cycles = false;
        std::vector<PaddedLine>& mine = lines[tid];
        for (std::uint64_t i = 0; i < p.txs_per_thread; ++i) {
          // Hand-rolled retry loop: `atomically`'s try-scope setup and
          // post-commit bookkeeping are harness overhead at this grain.
          // Retries are only possible via orec-table aliasing across
          // threads, but must still be handled.
          for (;;) {
            engine.begin(tx);
            try {
              engine.write(tx, &mine[i % p.lines].word.value,
                           static_cast<Word>(i));
              engine.commit(tx);
              tx.in_tx = false;
              tx.engine = nullptr;
              tx.consecutive_aborts = 0;
              break;
            } catch (const stm::TxConflict&) {
              continue;
            }
          }
        }
      });
}

// --- legacy shared-vs-split cells ------------------------------------------

struct PaddedRegion {
  CacheLinePadded<Word[16]> words;
};

template <typename Engine>
void run_legacy_tx(Engine& engine, stm::TxThread& tx, Word* data,
                   unsigned writes) {
  stm::atomically(engine, tx, [&](stm::TxThread& t) {
    for (unsigned i = 0; i < writes; ++i) {
      engine.write(t, &data[i], engine.read(t, &data[i]) + 1);
    }
  });
}

template <typename Engine>
CellResult run_legacy_shared(const std::string& workload, unsigned threads,
                             const WorkloadParams& p) {
  Engine engine;
  std::vector<PaddedRegion> data(threads);
  return run_span(workload, threads, "shared", p.txs_per_thread,
                  [&](unsigned tid) {
                    stm::TxThread tx;
                    for (std::uint64_t i = 0; i < p.txs_per_thread; ++i) {
                      run_legacy_tx(engine, tx, data[tid].words.value,
                                    p.legacy_writes);
                    }
                  });
}

template <typename Engine>
CellResult run_legacy_split(const std::string& workload, unsigned threads,
                            const WorkloadParams& p) {
  std::vector<std::unique_ptr<Engine>> engines;
  for (unsigned t = 0; t < threads; ++t) {
    engines.push_back(std::make_unique<Engine>());
  }
  std::vector<PaddedRegion> data(threads);
  return run_span(workload, threads, "split", p.txs_per_thread,
                  [&](unsigned tid) {
                    stm::TxThread tx;
                    for (std::uint64_t i = 0; i < p.txs_per_thread; ++i) {
                      run_legacy_tx(*engines[tid], tx, data[tid].words.value,
                                    p.legacy_writes);
                    }
                  });
}

// --- reporting -------------------------------------------------------------

const CellResult* find(const std::vector<CellResult>& rs,
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

void print_row(const CellResult& r) {
  std::printf("%-14s %8u %8s %10llu %10.4f %10.4f %14.0f\n",
              r.workload.c_str(), r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.commits), r.wall_seconds,
              r.cpu_seconds, r.tx_per_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const WorkloadParams& p) {
  std::ofstream out(path);
  char buf[320];
  out << "{\n  \"bench\": \"micro_clock\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"cycles_per_second\": %.6g,\n"
      "  \"txs_per_thread\": %llu,\n  \"lines\": %u,\n"
      "  \"legacy_writes\": %u,\n  \"repeats\": %u,\n  \"results\": [\n",
      std::thread::hardware_concurrency(), cycles_per_second(),
      static_cast<unsigned long long>(p.txs_per_thread), p.lines,
      p.legacy_writes, p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"threads\": %u, "
                  "\"variant\": \"%s\", \"commits\": %llu, "
                  "\"wall_seconds\": %.6g, \"cpu_seconds\": %.6g, "
                  "\"tx_per_cpu_sec\": %.6g}%s\n",
                  r.workload.c_str(), r.threads, r.variant.c_str(),
                  static_cast<unsigned long long>(r.commits), r.wall_seconds,
                  r.cpu_seconds, r.tx_per_sec, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedups_vs_gv1\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.workload != "orec_commit" || r.variant == "gv1") continue;
    const CellResult* base = find(rs, r.workload, r.threads, "gv1");
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"threads\": %u, \"policy\": \"%s\", "
                  "\"speedup\": %.4g}\n",
                  first ? "" : ",", r.threads, r.variant.c_str(),
                  r.tx_per_sec / base->tx_per_sec);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Commit-clock A/B microbench: GV1/GV4/GV5/GV6 writer-commit throughput on "
      "disjoint data, plus the legacy shared-vs-split metadata cells.");
  flags
      .flag("threads", "8", "max thread count (cells run at 1/2/4/..max)")
      .flag("txs", "200000", "transactions per thread per policy cell")
      .flag("legacy-txs", "100000", "transactions per thread per legacy cell")
      .flag("lines", "64",
            "private cache lines each thread's writes rotate over; the GV5 "
            "amortization window (one extension CAS per `lines` commits)")
      .flag("legacy-writes", "4", "RMWs per legacy-cell transaction")
      .flag("repeats", "5", "runs per cell; the fastest is reported")
      .flag("out", "BENCH_clock.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  WorkloadParams p;
  const unsigned max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("threads")));
  p.txs_per_thread = static_cast<std::uint64_t>(flags.i64("txs"));
  std::uint64_t legacy_txs =
      static_cast<std::uint64_t>(flags.i64("legacy-txs"));
  p.lines =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("lines")));
  p.legacy_writes = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.i64("legacy-writes")));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.txs_per_thread = std::min<std::uint64_t>(p.txs_per_thread, 200);
    legacy_txs = std::min<std::uint64_t>(legacy_txs, 200);
    p.repeats = 1;
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);

  std::vector<CellResult> results;
  std::printf("%-14s %8s %8s %10s %10s %10s %14s\n", "workload", "threads",
              "variant", "commits", "wall_s", "cpu_s", "tx/cpu_sec");

  constexpr ClockPolicy kPolicies[] = {ClockPolicy::kGv1, ClockPolicy::kGv4,
                                       ClockPolicy::kGv5, ClockPolicy::kGv6};
  constexpr int kNumPolicies =
      static_cast<int>(sizeof(kPolicies) / sizeof(kPolicies[0]));
  for (unsigned t : thread_counts) {
    // Interleave the policies within each repeat (see header).
    CellResult best[kNumPolicies];
    for (unsigned rep = 0; rep < p.repeats; ++rep) {
      for (int pi = 0; pi < kNumPolicies; ++pi) {
        CellResult r = run_policy_cell(kPolicies[pi], t, p);
        if (rep == 0 || r.tx_per_sec > best[pi].tx_per_sec) best[pi] = r;
      }
    }
    for (int pi = 0; pi < kNumPolicies; ++pi) {
      results.push_back(best[pi]);
      print_row(best[pi]);
    }
  }

  WorkloadParams lp = p;
  lp.txs_per_thread = legacy_txs;
  using LegacyRunner = CellResult (*)(const std::string&, unsigned,
                                      const WorkloadParams&);
  struct LegacyCell {
    const char* workload;
    LegacyRunner shared;
    LegacyRunner split;
  };
  const LegacyCell legacy_cells[] = {
      {"norec_meta", &run_legacy_shared<stm::NOrecEngine>,
       &run_legacy_split<stm::NOrecEngine>},
      {"orec_meta", &run_legacy_shared<stm::OrecEagerRedoEngine>,
       &run_legacy_split<stm::OrecEagerRedoEngine>},
  };
  for (unsigned t : {1u, max_threads}) {
    for (const LegacyCell& cell : legacy_cells) {
      CellResult best_shared{};
      CellResult best_split{};
      for (unsigned rep = 0; rep < lp.repeats; ++rep) {
        CellResult s = cell.shared(cell.workload, t, lp);
        if (rep == 0 || s.tx_per_sec > best_shared.tx_per_sec) best_shared = s;
        CellResult d = cell.split(cell.workload, t, lp);
        if (rep == 0 || d.tx_per_sec > best_split.tx_per_sec) best_split = d;
      }
      results.push_back(best_shared);
      print_row(best_shared);
      results.push_back(best_split);
      print_row(best_split);
    }
  }

  std::printf("\nspeedup vs gv1 (orec_commit):\n");
  for (const CellResult& r : results) {
    if (r.workload != "orec_commit" || r.variant == "gv1") continue;
    const CellResult* base = find(results, r.workload, r.threads, "gv1");
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::printf("  threads=%u %s: %.2fx\n", r.threads, r.variant.c_str(),
                r.tx_per_sec / base->tx_per_sec);
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
