// A/B harness for the validation fast paths: NOrec's commit write-signature
// broadcast and the orec engines' deduped read logs, measured with the
// filters on vs off at runtime (the VOTM_VALIDATION_FILTERS build option
// only moves the default — both modes are always measured here).
//
// Cells:
//   norec_read_heavy  — read-dominated NOrec transactions (big read-only
//                       snapshot + one thread-private write) with writers
//                       whose signatures are disjoint from the read sets;
//                       the regime the signature ring exists for. Run at
//                       1 thread (filter bookkeeping overhead must be in
//                       the noise) and at the full thread count (where
//                       filters skip the O(read-set) value validations).
//   view_q1           — the same shape through a View pinned at Q = 1:
//                       lock mode bypasses NOrec entirely, so filters must
//                       change nothing (regression guard for the knob).
//   orec_dup_reads    — OrecEagerRedo transactions that rescan a small
//                       window many times: the read log's dedup collapses
//                       O(reads) to O(unique orecs) per extension scan.
//   orec_aliased      — distinct addresses forced onto few orecs by a tiny
//                       table; dedup collapses the aliases. Deliberately
//                       the dedup's worst case on the push path (no
//                       adjacent duplicates, single-threaded so no scans
//                       amortize it): bounds the overhead.
//
// In-transaction yields (like the table benches' --yield-every) keep
// transactions overlapping on small hosts, so interleaved commits — the
// thing that triggers validation — happen at all core counts.
//
// Results go to stdout (human table) and BENCH_validation.json so the perf
// trajectory is tracked across PRs.
#include <ctime>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "util/barrier.hpp"
#include "util/cli.hpp"
#include "util/cycles.hpp"

namespace {

using namespace votm;
using stm::Word;

struct CellResult {
  std::string workload;
  unsigned threads;
  bool filters;
  std::uint64_t commits;
  double wall_seconds;
  double cpu_seconds;  // sum of per-thread CPU time
  double tx_per_sec;   // commits / cpu_seconds — see run_span
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct WorkloadParams {
  std::uint64_t txs_per_thread;   // orec cells (short transactions)
  std::uint64_t norec_txs;        // NOrec cells (millisecond transactions)
  unsigned norec_reads_per_tx;    // NOrec: total reads incl. re-reads
  unsigned unique_words;          // NOrec: distinct addresses, sized so the
                                  // 256-bit read signature stays far from
                                  // saturation
  unsigned orec_reads_per_tx;     // orec cells: total reads incl. re-reads
  unsigned yield_every;           // orec in-tx yield cadence (0 = never)
  unsigned repeats;
};

// Throughput is commits per CPU-second, summed over the workers (wall span
// is recorded too, for reference). On the small shared hosts this bench has
// to run on, wall time is dominated by steal/preemption noise that dwarfs
// the ±5% neutrality bounds this bench gates on; CPU time is immune to that
// while still charging every cost the filters exist to remove — an
// unfiltered validation is pure CPU (the value-log scan), not waiting.
// The wall span uses per-worker cycle stamps, span = max(end) - min(start),
// same scheme as bench/micro_admission.cpp.
template <typename WorkerBody>
CellResult run_span(const std::string& workload, unsigned threads,
                    bool filters, std::uint64_t txs_per_thread,
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
  r.filters = filters;
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

// Read-dominated NOrec: every transaction makes `norec_reads_per_tx` reads
// rotating over `unique` shared never-written words, and commits one write
// to a thread-private word. The rotation is NOrec's bad case — the value
// log grows per READ (re-reads are non-adjacent, so they all stay) while
// the 256-bit read signature only holds `unique` addresses and stays far
// from saturation. Commit signatures (one private word) are then (modulo
// Bloom collisions) disjoint from every read set: filters ON skips the
// O(reads) value scans that filters OFF must run on every slipped commit.
//
// Transactions are deliberately long (default ~10^6 reads, milliseconds):
// long enough that commits by other threads land mid-transaction even on a
// single-core host, where the only interleaving is timeslice preemption —
// cooperative yields don't work here, the scheduler is free to treat
// sched_yield as a no-op and mostly does when the yielder is the
// least-recently-run thread. On a real multicore the same shape just
// validates against genuinely concurrent commits.
CellResult run_norec_read_heavy(unsigned threads, bool filters,
                                const WorkloadParams& p) {
  stm::NOrecEngine engine(filters);
  std::vector<Word> shared(p.unique_words, 1);
  // One private word per thread, a cache line apart.
  std::vector<Word> privates(threads * 8, 0);
  // A handful of coarse in-tx yields (every ~10% of the read loop, i.e.
  // milliseconds apart) — at that granularity the yielder has accumulated
  // enough runtime that the scheduler really does switch, so each yield is
  // a chance for another thread's commit to land mid-transaction.
  const unsigned yield_stride =
      std::max(1u, p.norec_reads_per_tx / 10);
  return run_span("norec_read_heavy", threads, filters, p.norec_txs,
                  [&](unsigned tid) {
                    stm::TxThread tx;
                    Word sink = 0;
                    for (std::uint64_t i = 0; i < p.norec_txs; ++i) {
                      stm::atomically(engine, tx, [&](stm::TxThread& t) {
                        Word sum = 0;
                        for (unsigned r = 0; r < p.norec_reads_per_tx; ++r) {
                          sum += engine.read(t, &shared[r % p.unique_words]);
                          if (threads > 1 && (r + 1) % yield_stride == 0) {
                            std::this_thread::yield();
                          }
                        }
                        engine.write(t, &privates[tid * 8], sum + i);
                      });
                      sink += privates[tid * 8];
                    }
                    // Defeat dead-code elimination of the read loop.
                    if (sink == 0xDEAD) std::printf("!");
                  });
}

// The same shape through a View pinned at Q = 1: admission serializes the
// threads and the body runs in lock mode (CGL), never touching NOrec's
// validation at all. The filter knob must make no difference here.
CellResult run_view_q1(unsigned threads, bool filters,
                       const WorkloadParams& p) {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kNOrec;
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = 1;
  vc.engine.norec_commit_filters = filters;
  core::View view(vc);
  auto* cells = static_cast<Word*>(view.alloc(sizeof(Word) * 32));
  view.execute([&] {
    for (int i = 0; i < 32; ++i) core::vwrite<Word>(&cells[i], 1);
  });
  // Lock-mode transactions are tiny; run vastly more of them so the span is
  // hundreds of milliseconds and the ±5% regression bound is meaningful.
  const std::uint64_t txs = p.txs_per_thread * 100;
  return run_span("view_q1", threads, filters, txs,
                  [&](unsigned tid) {
                    Word sink = 0;
                    for (std::uint64_t i = 0; i < txs; ++i) {
                      view.execute([&] {
                        Word sum = 0;
                        for (int r = 0; r < 16; ++r) {
                          sum += core::vread(&cells[r]);
                        }
                        core::vwrite<Word>(&cells[16 + (tid % 16)], sum);
                      });
                      sink += i;
                    }
                    if (sink == 0xDEAD) std::printf("!");
                  });
}

// OrecEagerRedo rescanning a small window: `orec_reads_per_tx` reads over
// `unique` distinct words, in bursts (every word re-read many times in a
// row — the shape of a polling loop or repeated field access), so with
// dedup each read-log scan touches `unique` orecs instead of one entry per
// read. One write per transaction keeps the view clock moving, which makes
// every writer commit revalidate its read log (the scan the dedup shrinks).
// When `aliased`, the reads are `orec_reads_per_tx` DISTINCT words forced
// onto a small orec table instead, so the log collapse comes from stripe
// aliasing rather than address re-reads. This is the dedup's worst case on
// the push path — distinct addresses defeat the adjacent-duplicate check,
// so every read pays the hash-and-probe — and it runs single-threaded so
// nothing amortizes that tax: the cell exists to bound the overhead, not to
// show a win. (A contended variant was tried and rejected: with a small
// table every writer's word aliases onto the scanned stripes, so the cell
// degenerates into measuring abort-retry luck, and a read-only scan that
// contains a writer's stripe can never extend past that writer's commit.)
CellResult run_orec_cell(const std::string& workload,
                         std::size_t orec_table_size, unsigned unique,
                         bool aliased, unsigned threads, bool dedup,
                         const WorkloadParams& p) {
  stm::OrecEagerRedoEngine engine(orec_table_size);
  const unsigned reads = p.orec_reads_per_tx;
  std::vector<Word> window(aliased ? reads : unique, 1);
  std::vector<Word> privates(threads * 8, 0);
  const unsigned burst = aliased ? 1 : std::max(1u, reads / unique);
  return run_span(workload, threads, dedup, p.txs_per_thread,
                  [&](unsigned tid) {
                    stm::TxThread tx;
                    tx.rlog.set_dedup(dedup);
                    Word sink = 0;
                    for (std::uint64_t i = 0; i < p.txs_per_thread; ++i) {
                      stm::atomically(engine, tx, [&](stm::TxThread& t) {
                        Word sum = 0;
                        for (unsigned r = 0; r < reads; ++r) {
                          sum += engine.read(
                              t, &window[(r / burst) % window.size()]);
                          if (p.yield_every != 0 && threads > 1 &&
                              (r + 1) % p.yield_every == 0) {
                            std::this_thread::yield();
                          }
                        }
                        engine.write(t, &privates[tid * 8], sum + i);
                      });
                      sink += privates[tid * 8];
                    }
                    if (sink == 0xDEAD) std::printf("!");
                  });
}

// Best-of-repeats for both filter modes of one cell, with the on/off runs
// interleaved in time: the host drifts (frequency, steal, cache pressure)
// over the seconds a cell takes, and measuring all of one mode then all of
// the other folds that drift into the A/B ratio. Alternating runs gives
// both modes the same sample of host conditions.
template <typename Runner>
std::pair<CellResult, CellResult> best_of_pair(unsigned repeats,
                                               Runner&& runner) {
  CellResult best_on = runner(true);
  CellResult best_off = runner(false);
  for (unsigned i = 1; i < repeats; ++i) {
    const CellResult on = runner(true);
    if (on.tx_per_sec > best_on.tx_per_sec) best_on = on;
    const CellResult off = runner(false);
    if (off.tx_per_sec > best_off.tx_per_sec) best_off = off;
  }
  return {best_on, best_off};
}

const CellResult* find(const std::vector<CellResult>& rs,
                       const std::string& workload, unsigned threads,
                       bool filters) {
  for (const CellResult& r : rs) {
    if (r.workload == workload && r.threads == threads &&
        r.filters == filters) {
      return &r;
    }
  }
  return nullptr;
}

void print_row(const CellResult& r) {
  std::printf("%-18s %8u %8s %10llu %10.4f %10.4f %14.0f\n",
              r.workload.c_str(), r.threads, r.filters ? "on" : "off",
              static_cast<unsigned long long>(r.commits), r.wall_seconds,
              r.cpu_seconds, r.tx_per_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const WorkloadParams& p) {
  std::ofstream out(path);
  char buf[320];
  out << "{\n  \"bench\": \"micro_validation\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"cycles_per_second\": %.6g,\n"
      "  \"txs_per_thread\": %llu,\n  \"norec_txs\": %llu,\n"
      "  \"norec_reads_per_tx\": %u,\n  \"unique_words\": %u,\n"
      "  \"orec_reads_per_tx\": %u,\n  \"yield_every\": %u,\n"
      "  \"repeats\": %u,\n  \"results\": [\n",
      std::thread::hardware_concurrency(), cycles_per_second(),
      static_cast<unsigned long long>(p.txs_per_thread),
      static_cast<unsigned long long>(p.norec_txs), p.norec_reads_per_tx,
      p.unique_words, p.orec_reads_per_tx, p.yield_every, p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"threads\": %u, "
                  "\"filters\": %s, \"commits\": %llu, "
                  "\"wall_seconds\": %.6g, \"cpu_seconds\": %.6g, "
                  "\"tx_per_cpu_sec\": %.6g}%s\n",
                  r.workload.c_str(), r.threads, r.filters ? "true" : "false",
                  static_cast<unsigned long long>(r.commits), r.wall_seconds,
                  r.cpu_seconds, r.tx_per_sec, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedups_filters_on_vs_off\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (!r.filters) continue;
    const CellResult* base = find(rs, r.workload, r.threads, false);
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"workload\": \"%s\", \"threads\": %u, "
                  "\"speedup\": %.4g}\n",
                  first ? "" : ",", r.workload.c_str(), r.threads,
                  r.tx_per_sec / base->tx_per_sec);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Validation fast-path A/B microbench: signature-filtered NOrec and "
      "deduped orec read logs, filters on vs off.");
  flags
      .flag("threads", "8",
            "contended thread count (single-thread cells always run too)")
      .flag("txs", "5000", "transactions per thread per orec cell")
      .flag("norec-txs", "6", "transactions per thread per NOrec cell")
      .flag("reads", "2000000",
            "reads per NOrec transaction (incl. re-reads; sets the value-log "
            "length and with it the cost of one unfiltered validation, and "
            "makes transactions outlast a scheduler timeslice so commits "
            "interleave even on one core)")
      .flag("unique", "32",
            "distinct words a NOrec transaction reads (past ~128 the 256-bit "
            "read signature saturates and the filter stops discriminating)")
      .flag("orec-reads", "512",
            "reads per orec transaction (incl. re-reads of the small window)")
      .flag("yield-every", "64",
            "orec cells' in-tx yield cadence; keeps their short transactions "
            "overlapping on small hosts (0 disables)")
      .flag("repeats", "5", "runs per cell; the fastest is reported")
      .flag("out", "BENCH_validation.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  WorkloadParams p;
  const unsigned threads =
      static_cast<unsigned>(std::max<std::int64_t>(2, flags.i64("threads")));
  p.txs_per_thread = static_cast<std::uint64_t>(flags.i64("txs"));
  p.norec_txs = static_cast<std::uint64_t>(flags.i64("norec-txs"));
  p.norec_reads_per_tx = static_cast<unsigned>(flags.i64("reads"));
  p.unique_words =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("unique")));
  p.orec_reads_per_tx = static_cast<unsigned>(flags.i64("orec-reads"));
  p.yield_every = static_cast<unsigned>(flags.i64("yield-every"));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.txs_per_thread = std::min<std::uint64_t>(p.txs_per_thread, 20);
    p.norec_txs = std::min<std::uint64_t>(p.norec_txs, 4);
    p.norec_reads_per_tx = std::min(p.norec_reads_per_tx, 20000u);
    p.unique_words = std::min(p.unique_words, 16u);
    p.orec_reads_per_tx = std::min(p.orec_reads_per_tx, 64u);
    p.repeats = 1;
  }

  std::vector<CellResult> results;
  std::printf("%-18s %8s %8s %10s %10s %10s %14s\n", "workload", "threads",
              "filters", "commits", "wall_s", "cpu_s", "tx/cpu_sec");
  auto run_cell_pair = [&](unsigned repeats, auto&& runner) {
    auto [on, off] = best_of_pair(repeats, runner);
    results.push_back(on);
    print_row(on);
    results.push_back(off);
    print_row(off);
  };
  // The sub-second cells sit inside the host's noise floor where best-of-N
  // needs a larger N to converge; they are cheap, so give them double the
  // repeats of the seconds-long NOrec cells (whose A/B signal is large).
  const unsigned small_repeats = p.repeats * 2;
  for (unsigned t : {1u, threads}) {
    run_cell_pair(t == 1 ? small_repeats : p.repeats, [&](bool filters) {
      return run_norec_read_heavy(t, filters, p);
    });
  }
  run_cell_pair(small_repeats,
                [&](bool filters) { return run_view_q1(threads, filters, p); });
  for (unsigned t : {1u, threads}) {
    // 8 unique words rescanned in bursts; default orec table.
    run_cell_pair(small_repeats, [&](bool filters) {
      return run_orec_cell("orec_dup_reads", stm::OrecTable::kDefaultSize,
                           /*unique=*/8, /*aliased=*/false, t, filters, p);
    });
  }
  // Distinct addresses aliased onto a 64-stripe table; single-threaded
  // worst case for the dedup push path (see run_orec_cell).
  run_cell_pair(small_repeats, [&](bool filters) {
    return run_orec_cell("orec_aliased", /*orec_table_size=*/64,
                         /*unique=*/0, /*aliased=*/true, /*threads=*/1,
                         filters, p);
  });

  std::printf("\nspeedup (filters on / off):\n");
  for (const CellResult& r : results) {
    if (!r.filters) continue;
    const CellResult* base = find(results, r.workload, r.threads, false);
    if (base == nullptr || base->tx_per_sec <= 0) continue;
    std::printf("  %-18s threads=%u: %.2fx\n", r.workload.c_str(), r.threads,
                r.tx_per_sec / base->tx_per_sec);
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
