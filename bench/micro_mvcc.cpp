// MVCC-lite A/B harness (stm/mvcc.hpp, DESIGN.md §16): read-side
// throughput and abort counts of LONG read-only scans under concurrent
// writers, with the versioned read path off vs on.
//
// Workload (ro_scan): one reader thread repeatedly runs a read-only
// transaction that sweeps a `scan-words` cold array, reads a small hot
// array, yields once (the mutation window), and re-reads the hot array.
// The other threads commit small update transactions: on even reader
// attempts ("hot epochs") they increment random hot words, on odd ones
// they increment thread-private padded cells. Pre-MVCC, a hot commit
// landing inside the reader's attempt kills the whole sweep at the hot
// re-read (orec: failed extension; NOrec: failed value validation) and
// the reader repeats the entire cold scan — the classic long-reader
// starvation shape. With MVCC on, the re-read is served from the
// retained rings at the reader's snapshot and the sweep commits.
//
// Writer pacing is part of the harness, not an accident. The reference
// host is small (often 1 core), where writers only run when the reader
// yields or is preempted — and an unthrottled writer then dumps far more
// commits than any bounded ring can retain, so both variants degenerate
// to abort storms that measure the OS scheduler. Instead writers share a
// per-attempt commit budget (`writer-budget`, default 4): an epoch
// counter tracks the reader's attempts, and writers CAS commit slots out
// of the current epoch's budget, yielding once it is spent. Every
// reader attempt therefore faces the same bounded, ring-coverable burst
// of mutation — identically for both variants, so the A/B is fair; the
// alternating hot/private epochs fix the abort opportunity rate at 50%
// of attempts so the off variant degrades without livelocking.
//
// Methodology follows bench/micro_clock.cpp: read-side throughput is
// scans per reader CPU-second (CLOCK_THREAD_CPUTIME_ID), off/on variants
// are interleaved inside each repeat so host drift lands on both equally,
// and the best repeat is reported. Results go to stdout and
// BENCH_mvcc.json (checked in as the trajectory baseline).
#include <ctime>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "stm/factory.hpp"
#include "util/barrier.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace votm;
using stm::Word;

struct CellResult {
  std::string engine;
  unsigned threads;
  std::string variant;  // "off" / "on"
  std::uint64_t ro_commits;
  std::uint64_t ro_aborts;
  std::uint64_t ring_reads;  // reads served from the version rings
  std::uint64_t writer_commits;
  double reader_cpu_seconds;
  double ro_tx_per_sec;  // scans / reader_cpu_seconds
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Params {
  std::uint64_t scans;     // read-only sweeps the reader completes
  unsigned scan_words;     // cold words per sweep (the 'long' in long reader)
  unsigned hot_words;      // contended words read at the end of the sweep
  unsigned writer_budget;  // writer commits allowed per reader attempt
  unsigned repeats;
  std::size_t ring_depth;
};

struct PaddedLine {
  CacheLinePadded<Word> word;
};

CellResult run_cell(stm::Algo algo, bool mvcc, unsigned threads,
                    const Params& p) {
  stm::EngineConfig cfg;
  cfg.mvcc = mvcc;
  cfg.mvcc_ring_depth = p.ring_depth;
  auto engine = stm::make_engine(algo, cfg);
  std::vector<Word> cold(p.scan_words, 0);
  std::vector<Word> hot(p.hot_words, 0);
  std::vector<PaddedLine> privates(threads);

  CellResult r;
  r.engine = stm::to_string(algo);
  r.threads = threads;
  r.variant = mvcc ? "on" : "off";
  r.ro_commits = p.scans;
  r.ro_aborts = 0;
  r.ring_reads = 0;
  r.writer_commits = 0;
  r.reader_cpu_seconds = 0.0;

  std::atomic<bool> stop{false};
  // Reader attempt counter; even attempts are hot epochs. Writers carve
  // commit slots out of `budget`, packed as (epoch << 8 | commits), so at
  // most writer_budget commits land per attempt and unspent budget dies
  // with its epoch instead of accumulating into an unbounded backlog.
  std::atomic<std::uint64_t> attempt_epoch{0};
  std::atomic<std::uint64_t> budget{0};
  std::atomic<std::uint64_t> writer_commits{0};
  StartBarrier barrier(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) {
    pool.emplace_back([&, t] {
      stm::TxThread tx;
      tx.collect_cycles = false;
      Xoshiro256 rng(0x9E3779B9u * (t + 1));
      std::uint64_t commits = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t e = attempt_epoch.load(std::memory_order_relaxed);
        std::uint64_t cur = budget.load(std::memory_order_relaxed);
        if ((cur >> 8) != e) {
          if (!budget.compare_exchange_weak(cur, (e << 8) | 1,
                                            std::memory_order_relaxed)) {
            continue;
          }
        } else if ((cur & 0xFF) < p.writer_budget) {
          if (!budget.compare_exchange_weak(cur, cur + 1,
                                            std::memory_order_relaxed)) {
            continue;
          }
        } else {
          std::this_thread::yield();  // budget spent; wait out the attempt
          continue;
        }
        Word* addr = (e & 1) == 0 ? &hot[rng.below(p.hot_words)]
                                  : &privates[t].word.value;
        stm::atomically(*engine, tx, [&](stm::TxThread& x) {
          engine->write(x, addr, engine->read(x, addr) + 1);
        });
        ++commits;
      }
      writer_commits.fetch_add(commits, std::memory_order_relaxed);
    });
  }

  {
    stm::TxThread tx;
    tx.collect_cycles = false;
    tx.read_only = true;
    barrier.arrive_and_wait();
    const double cpu0 = thread_cpu_seconds();
    for (std::uint64_t s = 0; s < p.scans; ++s) {
      for (;;) {
        attempt_epoch.fetch_add(1, std::memory_order_relaxed);
        engine->begin(tx);
        try {
          Word sink = 0;
          for (unsigned i = 0; i < p.scan_words; ++i) {
            sink += engine->read(tx, &cold[i]);
          }
          for (unsigned i = 0; i < p.hot_words; ++i) {
            sink += engine->read(tx, &hot[i]);
          }
          // The mutation window: on a small host this is where the
          // writers spend the attempt's budget.
          std::this_thread::yield();
          for (unsigned i = 0; i < p.hot_words; ++i) {
            sink += engine->read(tx, &hot[i]);
          }
          engine->commit(tx);
          tx.in_tx = false;
          tx.engine = nullptr;
          tx.consecutive_aborts = 0;
          r.ring_reads += tx.mvcc_snapshot_reads;
          // Keep the sweep from being optimized out.
          if (sink == ~Word{0}) std::fputc(' ', stderr);
          break;
        } catch (const stm::TxConflict&) {
          ++r.ro_aborts;
          continue;
        }
      }
    }
    r.reader_cpu_seconds = thread_cpu_seconds() - cpu0;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  r.writer_commits = writer_commits.load();
  r.ro_tx_per_sec = r.reader_cpu_seconds > 0
                        ? static_cast<double>(r.ro_commits) /
                              r.reader_cpu_seconds
                        : 0.0;
  return r;
}

const CellResult* find(const std::vector<CellResult>& rs,
                       const std::string& engine, unsigned threads,
                       const std::string& variant) {
  for (const CellResult& r : rs) {
    if (r.engine == engine && r.threads == threads && r.variant == variant) {
      return &r;
    }
  }
  return nullptr;
}

void print_row(const CellResult& r) {
  std::printf("%-14s %8u %6s %10llu %10llu %10llu %10llu %10.4f %14.0f\n",
              r.engine.c_str(), r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.ro_commits),
              static_cast<unsigned long long>(r.ro_aborts),
              static_cast<unsigned long long>(r.ring_reads),
              static_cast<unsigned long long>(r.writer_commits),
              r.reader_cpu_seconds, r.ro_tx_per_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const Params& p) {
  std::ofstream out(path);
  char buf[384];
  out << "{\n  \"bench\": \"micro_mvcc\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"scans\": %llu,\n"
      "  \"scan_words\": %u,\n  \"hot_words\": %u,\n"
      "  \"writer_budget\": %u,\n  \"ring_depth\": %zu,\n"
      "  \"repeats\": %u,\n  \"results\": [\n",
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(p.scans), p.scan_words, p.hot_words,
      p.writer_budget, p.ring_depth, p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"workload\": \"ro_scan\", \"engine\": \"%s\", "
        "\"threads\": %u, \"variant\": \"%s\", \"ro_commits\": %llu, "
        "\"ro_aborts\": %llu, \"ring_reads\": %llu, "
        "\"writer_commits\": %llu, \"reader_cpu_seconds\": %.6g, "
        "\"ro_tx_per_cpu_sec\": %.6g}%s\n",
        r.engine.c_str(), r.threads, r.variant.c_str(),
        static_cast<unsigned long long>(r.ro_commits),
        static_cast<unsigned long long>(r.ro_aborts),
        static_cast<unsigned long long>(r.ring_reads),
        static_cast<unsigned long long>(r.writer_commits),
        r.reader_cpu_seconds, r.ro_tx_per_sec, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"throughput_on_vs_off\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.variant != "on") continue;
    const CellResult* base = find(rs, r.engine, r.threads, "off");
    if (base == nullptr || base->ro_tx_per_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"engine\": \"%s\", \"threads\": %u, "
                  "\"ratio\": %.4g, \"aborts_on\": %llu, "
                  "\"aborts_off\": %llu}\n",
                  first ? "" : ",", r.engine.c_str(), r.threads,
                  r.ro_tx_per_sec / base->ro_tx_per_sec,
                  static_cast<unsigned long long>(r.ro_aborts),
                  static_cast<unsigned long long>(base->ro_aborts));
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "MVCC-lite A/B microbench: long read-only scans under budgeted "
      "concurrent writers, versioned read path off vs on.");
  flags
      .flag("threads", "8", "max thread count (cells run at 2/4/..max; one "
                            "thread reads, the rest write)")
      .flag("scans", "2000", "read-only sweeps per cell")
      .flag("scan-words", "4096", "cold words per sweep (the 'long reader')")
      .flag("hot-words", "16", "contended words re-read at the sweep's end")
      .flag("writer-budget", "4",
            "writer commits allowed per reader attempt (keeps the slip "
            "inside what the rings retain)")
      .flag("ring-depth", "16", "retained versions per orec stripe")
      .flag("repeats", "5", "runs per cell; best reader throughput reported")
      .flag("engines", "oer,norec",
            "comma list: oer (OrecEagerRedo), norec")
      .flag("out", "BENCH_mvcc.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  Params p;
  const unsigned max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(2, flags.i64("threads")));
  p.scans = static_cast<std::uint64_t>(flags.i64("scans"));
  p.scan_words = static_cast<unsigned>(
      std::max<std::int64_t>(2, flags.i64("scan-words")));
  p.hot_words = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.i64("hot-words")));
  p.writer_budget = static_cast<unsigned>(std::min<std::int64_t>(
      255, std::max<std::int64_t>(1, flags.i64("writer-budget"))));
  p.ring_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.i64("ring-depth")));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.scans = std::min<std::uint64_t>(p.scans, 30);
    p.repeats = 1;
  }

  std::vector<stm::Algo> algos;
  {
    const std::string list = flags.str("engines");
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string name =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!name.empty()) algos.push_back(stm::algo_from_string(name));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.empty() || thread_counts.back() != max_threads) {
    thread_counts.push_back(max_threads);
  }

  std::vector<CellResult> results;
  std::printf("%-14s %8s %6s %10s %10s %10s %10s %10s %14s\n", "engine",
              "threads", "mvcc", "ro_txs", "ro_aborts", "ring_rds",
              "wr_commits", "rd_cpu_s", "ro_tx/cpu_sec");
  for (stm::Algo algo : algos) {
    for (unsigned t : thread_counts) {
      CellResult best[2];
      for (unsigned rep = 0; rep < p.repeats; ++rep) {
        // Interleave off/on inside each repeat (see header).
        for (int v = 0; v < 2; ++v) {
          CellResult r = run_cell(algo, v == 1, t, p);
          if (rep == 0 || r.ro_tx_per_sec > best[v].ro_tx_per_sec) {
            best[v] = r;
          }
        }
      }
      for (int v = 0; v < 2; ++v) {
        results.push_back(best[v]);
        print_row(best[v]);
      }
    }
  }

  std::printf("\nread-side speedup, mvcc on vs off:\n");
  for (const CellResult& r : results) {
    if (r.variant != "on") continue;
    const CellResult* base = find(results, r.engine, r.threads, "off");
    if (base == nullptr || base->ro_tx_per_sec <= 0) continue;
    std::printf("  %s threads=%u: %.2fx (aborts %llu -> %llu)\n",
                r.engine.c_str(), r.threads,
                r.ro_tx_per_sec / base->ro_tx_per_sec,
                static_cast<unsigned long long>(base->ro_aborts),
                static_cast<unsigned long long>(r.ro_aborts));
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
