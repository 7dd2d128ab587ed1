// A/B harness for the commit-clock layer (stm/clock.hpp).
//
// Two questions, two groups of cells:
//
//   orec_commit (policy cells) — writer-commit throughput of one shared
//       OrecEagerRedo engine under GV1 / GV5 at 1/2/4/8 threads.
//       Each transaction blind-writes one thread-private padded cache
//       line, rotating over `lines` (default 64) of them, so the ONLY
//       shared state is TM metadata and the clock's share of the commit
//       is maximal (a one-word redo log leaves the commit tail little
//       besides the clock); the harness
//       drives begin/write/commit directly with cycle telemetry off
//       (TxThread::collect_cycles = false, identically for every
//       policy) so the two per-transaction rdtsc reads (~30ns on the
//       reference host) don't dilute the clock's share of a sub-30ns
//       commit. The rotation is what lets GV5 amortize: a commit
//       leaves the line's orec at a future timestamp, and the next time
//       the thread returns to that line (lines transactions later) one
//       extension CAS pushes the global clock past the whole backlog —
//       ~1 global CAS per `lines` commits, versus GV1's locked RMW on
//       the shared clock line every single commit.
//
//   norec_meta/orec_meta shared vs split (legacy cells) — the original
//       Section III-D isolation: the same disjoint-data transactions
//       against ONE engine for all threads (TM / single-view) versus one
//       engine PER thread (multi-TM); any gap is pure metadata contention.
//
// Methodology (bench/repeat_cells.hpp): throughput is commits per
// CPU-second summed over workers; repeats of one cell's variants are
// interleaved in time so host drift lands on all of them equally; each
// variant reports its median repeat with the IQR, and each ratio is the
// median of per-repeat ratios. The defaults size every 4-thread cell to
// a quarter second or more on the 4-core reference host. Results go to
// stdout and BENCH_clock.json (checked in as the trajectory baseline).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/repeat_cells.hpp"
#include "stm/clock.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"

namespace {

using namespace votm;
using bench::CellResult;
using bench::run_span;
using stm::ClockPolicy;
using stm::Word;

struct WorkloadParams {
  std::uint64_t txs_per_thread;
  unsigned lines;          // private cache lines each thread rotates over
  unsigned legacy_writes;  // RMWs per legacy-cell transaction
  unsigned repeats;
};

// --- policy cells ----------------------------------------------------------

// Thread-private write targets, one cache line per slot so distinct slots
// never share an orec-relevant line and distinct threads never share
// anything but the engine metadata.
struct PaddedLine {
  CacheLinePadded<Word> word;
};

CellResult run_policy_cell(ClockPolicy policy, unsigned threads,
                           const WorkloadParams& p) {
  stm::OrecEagerRedoEngine engine(stm::OrecTable::kDefaultSize, policy);
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

void print_row(const CellResult& r) {
  std::printf("%-14s %8u %8s %10llu %10.4f %10.4f %14.0f %14.0f %14.0f\n",
              r.workload.c_str(), r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.commits), r.wall_seconds,
              r.cpu_seconds, r.tx_per_sec, r.tx.q1, r.tx.q3);
}

// One ratio entry: `r` over `base`, commits per CPU-second and wall clock,
// each as the median and IQR of per-repeat ratios.
void write_ratio(std::ofstream& out, bool first, const char* key,
                 const CellResult& r, const CellResult& base) {
  const bench::Spread cpu = bench::cpu_speedup(r, base);
  const bench::Spread wall = bench::wall_speedup(r, base);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "    %s{\"workload\": \"%s\", \"threads\": %u, "
                "\"%s\": \"%s\", \"speedup\": %.4g, \"speedup_q1\": %.4g, "
                "\"speedup_q3\": %.4g, \"wall_speedup\": %.4g, "
                "\"wall_speedup_q1\": %.4g, \"wall_speedup_q3\": %.4g}\n",
                first ? "" : ",", r.workload.c_str(), r.threads, key,
                r.variant.c_str(), cpu.median, cpu.q1, cpu.q3, wall.median,
                wall.q1, wall.q3);
  out << buf;
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const WorkloadParams& p, std::uint64_t legacy_txs) {
  std::ofstream out(path);
  char buf[320];
  out << "{\n  \"bench\": \"micro_clock\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"cycles_per_second\": %.6g,\n"
      "  \"txs_per_thread\": %llu,\n  \"legacy_txs_per_thread\": %llu,\n"
      "  \"lines\": %u,\n  \"legacy_writes\": %u,\n  \"repeats\": %u,\n"
      "  \"summary\": \"median repeat; *_q1/*_q3 are the quartiles\",\n"
      "  \"results\": [\n",
      std::thread::hardware_concurrency(), cycles_per_second(),
      static_cast<unsigned long long>(p.txs_per_thread),
      static_cast<unsigned long long>(legacy_txs), p.lines, p.legacy_writes,
      p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"threads\": %u, "
                  "\"variant\": \"%s\", \"commits\": %llu, "
                  "\"wall_seconds\": %.6g, \"cpu_seconds\": %.6g, "
                  "\"tx_per_cpu_sec\": %.6g, \"tx_per_cpu_sec_q1\": %.6g, "
                  "\"tx_per_cpu_sec_q3\": %.6g}%s\n",
                  r.workload.c_str(), r.threads, r.variant.c_str(),
                  static_cast<unsigned long long>(r.commits), r.wall_seconds,
                  r.cpu_seconds, r.tx_per_sec, r.tx.q1, r.tx.q3,
                  i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedups_vs_gv1\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.workload != "orec_commit" || r.variant == "gv1") continue;
    const CellResult* base = bench::find(rs, r.workload, r.threads, "gv1");
    if (base == nullptr) continue;
    write_ratio(out, first, "policy", r, *base);
    first = false;
  }
  out << "  ],\n  \"split_vs_shared\": [\n";
  first = true;
  for (const CellResult& r : rs) {
    if (r.variant != "split") continue;
    const CellResult* base = bench::find(rs, r.workload, r.threads, "shared");
    if (base == nullptr) continue;
    write_ratio(out, first, "variant", r, *base);
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Commit-clock A/B microbench: GV1/GV5 writer-commit throughput on "
      "disjoint data, plus the legacy shared-vs-split metadata cells.");
  flags
      .flag("threads", "8", "max thread count (cells run at 1/2/4/..max)")
      .flag("txs", "5000000", "transactions per thread per policy cell")
      .flag("legacy-txs", "2000000",
            "transactions per thread per legacy cell")
      .flag("lines", "64",
            "private cache lines each thread's writes rotate over; the GV5 "
            "amortization window (one extension CAS per `lines` commits)")
      .flag("legacy-writes", "4", "RMWs per legacy-cell transaction")
      .flag("repeats", "5",
            "runs per cell; the median is reported with its IQR")
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
  std::printf("%-14s %8s %8s %10s %10s %10s %14s %14s %14s\n", "workload",
              "threads", "variant", "commits", "wall_s", "cpu_s",
              "tx/cpu_sec", "q1", "q3");

  constexpr ClockPolicy kPolicies[] = {ClockPolicy::kGv1, ClockPolicy::kGv5};
  constexpr int kNumPolicies =
      static_cast<int>(sizeof(kPolicies) / sizeof(kPolicies[0]));
  for (unsigned t : thread_counts) {
    // Interleave the policies within each repeat (see header).
    std::vector<CellResult> reps[kNumPolicies];
    for (unsigned rep = 0; rep < p.repeats; ++rep) {
      for (int pi = 0; pi < kNumPolicies; ++pi) {
        reps[pi].push_back(run_policy_cell(kPolicies[pi], t, p));
      }
    }
    for (int pi = 0; pi < kNumPolicies; ++pi) {
      results.push_back(bench::summarize(reps[pi]));
      print_row(results.back());
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
      std::vector<CellResult> shared;
      std::vector<CellResult> split;
      for (unsigned rep = 0; rep < lp.repeats; ++rep) {
        shared.push_back(cell.shared(cell.workload, t, lp));
        split.push_back(cell.split(cell.workload, t, lp));
      }
      results.push_back(bench::summarize(shared));
      print_row(results.back());
      results.push_back(bench::summarize(split));
      print_row(results.back());
    }
  }

  std::printf("\nmedian [IQR] of per-repeat ratios, cpu-second and wall:\n");
  for (const CellResult& r : results) {
    const char* base_name = r.workload == "orec_commit" ? "gv1" : "shared";
    if (r.variant == base_name) continue;
    const CellResult* base =
        bench::find(results, r.workload, r.threads, base_name);
    if (base == nullptr) continue;
    const bench::Spread cpu = bench::cpu_speedup(r, *base);
    const bench::Spread wall = bench::wall_speedup(r, *base);
    std::printf(
        "  %-12s threads=%u %s/%s: cpu %.2fx [%.2f, %.2f]  wall %.2fx "
        "[%.2f, %.2f]\n",
        r.workload.c_str(), r.threads, r.variant.c_str(), base_name,
        cpu.median, cpu.q1, cpu.q3, wall.median, wall.q1, wall.q3);
  }

  write_json(flags.str("out"), results, p, legacy_txs);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
