// Wait-based contention-management A/B harness (stm/contention.hpp,
// DESIGN.md §19) — the {ContentionMode} x {RAC fixed-Q vs adaptive} x
// {1/2/4/../max threads} matrix on a skewed-hotspot workload.
//
// The workload is built so that what the LOSER of a conflict does matters:
//
//   hotspot — every transaction does `private-ops` read-modify-writes over
//       thread-private padded lines with one RMW of a skewed hot word
//       dropped hot-point% of the way through (hot-pct% of transactions
//       hit slot 0 of a small shared array, the rest spread over its
//       tail). The mid-body hot access is the point: on the
//       encounter-locking engine (OrecEagerRedo) the hot orec is acquired
//       at the RMW and held through the rest of the body and the commit
//       tail, so every discoverer has already paid hot-point% of its own
//       prefix when it meets the held lock. abort_retry (the paper's
//       aggressive "discoverer aborts" rule) throws that prefix away and
//       re-earns it, often into the same held lock; wait_timeout parks
//       the discoverer on the owner's orec for a bounded spin and re-runs
//       the access once the word moves, falling back to abort_retry on
//       timeout or when the ordinal deadlock rule forbids the wait.
//
// Matrix dimensions:
//   * mode    — abort_retry (baseline, the default) vs wait_timeout;
//   * rac     — fixed Q=N (admission never throttles: raw CM head-to-head)
//               vs adaptive (RAC halves Q under the abort storm; composes
//               with CM — the paper's two contention controllers stacked);
//   * threads — 1/2/4/../max. The 1-thread cells are the inertness bound:
//               with no peer there is no foreign lock to wait on.
//
// Methodology follows bench/micro_validation.cpp: throughput is commits
// per CPU-second (CLOCK_THREAD_CPUTIME_ID, summed over workers) so
// timeslice/steal noise on small hosts cancels — and so cycles burned
// spinning or retrying count against a variant honestly; the wall-clock
// ratio is reported next to it. Both variants of one (rac, threads) cell
// are interleaved in time within each repeat so host drift lands on both
// equally. Repeats are POOLED (sum commits / sum cpu): the measured
// phenomenon is bursty conflict storms, and best-of would crown whichever
// baseline repeat happened to dodge them. Results go to stdout and
// BENCH_cm.json (checked in as the trajectory baseline;
// scripts/check_bench_json.py requires it).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/repeat_cells.hpp"
#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/contention.hpp"
#include "util/cacheline.hpp"
#include "util/cli.hpp"

namespace {

using namespace votm;
using bench::CellResult;  // `workload` holds the RAC mode name
using stm::ContentionMode;
using stm::Word;

// The ratio denominator: the default mode, the paper's aggressive CM.
constexpr const char* kBaseline = "abort_retry";

struct WorkloadParams {
  std::uint64_t txs_per_thread;
  unsigned private_lines;  // padded lines each thread's prefix rotates over
  unsigned private_ops;    // RMWs in the private prefix
  unsigned hot_slots;      // shared hot array size (each on its own line)
  unsigned hot_pct;        // % of transactions aimed at hot slot 0
  unsigned hot_point;      // % of the prefix paid before the hot RMW
  unsigned repeats;
};

struct PaddedLine {
  CacheLinePadded<Word> word;
};

// SplitMix64; per-thread streams make the hot-slot choice deterministic
// per (tid, tx) and identical across every variant of a cell.
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

CellResult run_cell(core::RacMode rac, const char* rac_name,
                    ContentionMode mode, unsigned threads,
                    const WorkloadParams& p) {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kOrecEagerRedo;
  vc.max_threads = threads;
  vc.rac = rac;
  vc.fixed_quota = threads;  // fixed = Q pinned at N: admission inert
  vc.initial_bytes = std::size_t{1} << 22;
  vc.backoff = BackoffPolicy::kNone;  // paper default: CM, not pacing
  vc.engine.contention_mode = mode;
  core::View view(vc);

  auto* hot = static_cast<PaddedLine*>(
      view.alloc(p.hot_slots * sizeof(PaddedLine)));
  std::vector<PaddedLine*> priv(threads);
  for (unsigned t = 0; t < threads; ++t) {
    priv[t] = static_cast<PaddedLine*>(
        view.alloc(p.private_lines * sizeof(PaddedLine)));
  }
  view.execute([&] {
    for (unsigned i = 0; i < p.hot_slots; ++i) {
      core::vwrite<Word>(&hot[i].word.value, 0);
    }
    for (unsigned t = 0; t < threads; ++t) {
      for (unsigned i = 0; i < p.private_lines; ++i) {
        core::vwrite<Word>(&priv[t][i].word.value, 0);
      }
    }
  });

  return bench::run_span(
      rac_name, threads, stm::to_string(mode), p.txs_per_thread,
      [&](unsigned t) {
        std::uint64_t rng = 0x5ca1ab1e0000ull + t;
        PaddedLine* mine = priv[t];
        for (std::uint64_t i = 0; i < p.txs_per_thread; ++i) {
          const std::uint64_t r = mix(rng);
          // Skewed hot-slot choice, drawn per LOGICAL transaction so every
          // retry fights for the same word (and both mode variants see the
          // same access stream).
          const unsigned slot =
              (r % 100) < p.hot_pct
                  ? 0
                  : 1 + static_cast<unsigned>((r / 100) %
                                              (p.hot_slots - 1));
          // hot-point% of the prefix is sunk cost at the hot RMW; the rest
          // runs with the hot orec already held (eager locking), widening
          // the conflict window from a commit tail to most of the body.
          const unsigned before = p.private_ops * p.hot_point / 100;
          view.execute([&] {
            for (unsigned k = 0; k < before; ++k) {
              Word* w = &mine[(i + k) % p.private_lines].word.value;
              core::vwrite<Word>(w, core::vread<Word>(w) + 1);
            }
            Word* h = &hot[slot].word.value;
            core::vwrite<Word>(h, core::vread<Word>(h) + 1);
            for (unsigned k = before; k < p.private_ops; ++k) {
              Word* w = &mine[(i + k) % p.private_lines].word.value;
              core::vwrite<Word>(w, core::vread<Word>(w) + 1);
            }
          });
        }
      });
}

void print_row(const CellResult& r) {
  std::printf("%-9s %8u %17s %10llu %10.4f %10.4f %14.0f\n",
              r.workload.c_str(), r.threads, r.variant.c_str(),
              static_cast<unsigned long long>(r.commits), r.wall_seconds,
              r.cpu_seconds, r.tx_per_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const WorkloadParams& p) {
  std::ofstream out(path);
  char buf[320];
  out << "{\n  \"bench\": \"micro_cm\",\n";
  std::snprintf(
      buf, sizeof buf,
      "  \"hardware_concurrency\": %u,\n  \"cycles_per_second\": %.6g,\n"
      "  \"txs_per_thread\": %llu,\n  \"private_ops\": %u,\n"
      "  \"hot_slots\": %u,\n  \"hot_pct\": %u,\n  \"hot_point\": %u,\n"
      "  \"repeats\": %u,\n"
      "  \"results\": [\n",
      std::thread::hardware_concurrency(), cycles_per_second(),
      static_cast<unsigned long long>(p.txs_per_thread), p.private_ops,
      p.hot_slots, p.hot_pct, p.hot_point, p.repeats);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"rac\": \"%s\", \"threads\": %u, "
                  "\"variant\": \"%s\", \"commits\": %llu, "
                  "\"wall_seconds\": %.6g, \"cpu_seconds\": %.6g, "
                  "\"tx_per_cpu_sec\": %.6g}%s\n",
                  r.workload.c_str(), r.threads, r.variant.c_str(),
                  static_cast<unsigned long long>(r.commits), r.wall_seconds,
                  r.cpu_seconds, r.tx_per_sec, i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedups_vs_abort_retry\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.variant == kBaseline) continue;
    const CellResult* base = bench::find(rs, r.workload, r.threads, kBaseline);
    if (base == nullptr || base->tx_per_sec <= 0 || r.wall_seconds <= 0) {
      continue;
    }
    std::snprintf(buf, sizeof buf,
                  "    %s{\"rac\": \"%s\", \"threads\": %u, "
                  "\"mode\": \"%s\", \"speedup\": %.4g, "
                  "\"wall_speedup\": %.4g}\n",
                  first ? "" : ",", r.workload.c_str(), r.threads,
                  r.variant.c_str(), r.tx_per_sec / base->tx_per_sec,
                  base->wall_seconds / r.wall_seconds);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Wait-CM microbench: {abort_retry, wait_timeout} x {fixed-Q, adaptive "
      "RAC} x {1/2/4/..max threads} on a skewed-hotspot workload with a "
      "mid-body hot RMW inside a private prefix.");
  flags
      .flag("threads", "4", "max thread count (cells run at 1/2/4/..max)")
      .flag("txs", "160000",
            "transactions per thread per cell (each 1-thread repeat lasts "
            ">= 0.3 s on a 2 GHz core, so its cells are not timer noise)")
      .flag("private-ops", "256",
            "RMWs in the private prefix each transaction pays before the "
            "hot access (the work an abort throws away)")
      .flag("private-lines", "16", "padded lines the prefix rotates over")
      .flag("hot-slots", "8", "shared hot array size (one line per slot)")
      .flag("hot-pct", "85", "% of transactions aimed at hot slot 0")
      .flag("hot-point", "50",
            "% of the prefix paid before the hot RMW; the rest of the "
            "body runs with the hot orec held (the conflict window)")
      .flag("repeats", "3",
            "runs per cell; commits and cpu-seconds are pooled across "
            "repeats (contention is bursty; best-of would dodge it)")
      .flag("out", "BENCH_cm.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  WorkloadParams p;
  const unsigned max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("threads")));
  p.txs_per_thread = static_cast<std::uint64_t>(flags.i64("txs"));
  p.private_ops = static_cast<unsigned>(
      std::max<std::int64_t>(0, flags.i64("private-ops")));
  p.private_lines = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.i64("private-lines")));
  p.hot_slots = static_cast<unsigned>(
      std::max<std::int64_t>(2, flags.i64("hot-slots")));
  p.hot_pct = static_cast<unsigned>(std::min<std::int64_t>(
      100, std::max<std::int64_t>(0, flags.i64("hot-pct"))));
  p.hot_point = static_cast<unsigned>(std::min<std::int64_t>(
      100, std::max<std::int64_t>(0, flags.i64("hot-point"))));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (flags.boolean("smoke")) {
    p.txs_per_thread = std::min<std::uint64_t>(p.txs_per_thread, 100);
    p.repeats = 1;
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != max_threads) thread_counts.push_back(max_threads);

  constexpr ContentionMode kModes[] = {ContentionMode::kAbortRetry,
                                       ContentionMode::kWaitTimeout};
  constexpr int kNumModes =
      static_cast<int>(sizeof(kModes) / sizeof(kModes[0]));
  struct RacVariant {
    core::RacMode mode;
    const char* name;
  };
  const RacVariant racs[] = {{core::RacMode::kFixed, "fixed"},
                             {core::RacMode::kAdaptive, "adaptive"}};

  std::vector<CellResult> results;
  std::printf("%-9s %8s %17s %10s %10s %10s %14s\n", "rac", "threads",
              "mode", "commits", "wall_s", "cpu_s", "tx/cpu_sec");
  for (const RacVariant& rac : racs) {
    for (unsigned t : thread_counts) {
      CellResult pooled[kNumModes];
      for (unsigned rep = 0; rep < p.repeats; ++rep) {
        for (int pi = 0; pi < kNumModes; ++pi) {
          CellResult r = run_cell(rac.mode, rac.name, kModes[pi], t, p);
          if (rep == 0) {
            pooled[pi] = r;
          } else {
            pooled[pi].commits += r.commits;
            pooled[pi].wall_seconds += r.wall_seconds;
            pooled[pi].cpu_seconds += r.cpu_seconds;
          }
        }
      }
      for (int pi = 0; pi < kNumModes; ++pi) {
        pooled[pi].tx_per_sec =
            pooled[pi].cpu_seconds > 0
                ? static_cast<double>(pooled[pi].commits) /
                      pooled[pi].cpu_seconds
                : 0.0;
        results.push_back(pooled[pi]);
        print_row(pooled[pi]);
      }
    }
  }

  std::printf("\nspeedup vs %s (commits per cpu-second, wall clock):\n",
              kBaseline);
  for (const CellResult& r : results) {
    if (r.variant == kBaseline) continue;
    const CellResult* base =
        bench::find(results, r.workload, r.threads, kBaseline);
    if (base == nullptr || base->tx_per_sec <= 0 || r.wall_seconds <= 0) {
      continue;
    }
    std::printf("  rac=%-8s threads=%u %s: cpu %.2fx  wall %.2fx\n",
                r.workload.c_str(), r.threads, r.variant.c_str(),
                r.tx_per_sec / base->tx_per_sec,
                base->wall_seconds / r.wall_seconds);
  }

  write_json(flags.str("out"), results, p);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
