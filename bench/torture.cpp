// Chaos torture harness + robustness A/B bench (DESIGN.md §19).
//
// Two jobs in one binary, both time-boxed by --duration:
//
//  * A/B cells (the honest numbers, written to BENCH_robustness.json):
//      - contention: a write-heavy hot-word workload on OrecEagerRedo,
//        ContentionMode::kAbortRetry vs kWaitTimeout at 1/2/4/8 threads.
//        Waiting on the owner instead of aborting immediately is the
//        paper's "wait" CM family; the ratio prices it per thread count.
//      - overload: transactional alloc/free churn with a lazy amortized
//        reclaim trigger (identical in both cells), limbo watermarks off
//        vs on. The headline is not throughput but the limbo-depth
//        high-water mark: watermarks bound how much memory sits in the
//        grace period when reclaim cannot keep up (soft mark forces
//        passes, hard mark sheds admission quota).
//  * a chaos phase (stdout only): every robustness feature at once —
//    random deadlines, wait CM, watermarks, quota churn — with the
//    overload contract checked at the end (no wedge, no leak, ledgers
//    drained). The seconds-long ctest tier of the same shake lives in
//    tests/test_torture.cpp; this one scales to minutes via --duration.
//
// Methodology follows bench/micro_reclaim.cpp: throughput is commits per
// worker CPU-second (CLOCK_THREAD_CPUTIME_ID summed across workers), the
// A and B variants of each cell are interleaved inside each repeat so
// host drift lands on both equally, and the best repeat is reported.
#include <ctime>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/access.hpp"
#include "core/view.hpp"
#include "stm/abort.hpp"
#include "stm/factory.hpp"
#include "util/barrier.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace {

using namespace votm;
using stm::Word;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct CellResult {
  std::string workload;  // "contention" / "overload"
  std::string engine;
  unsigned threads = 0;
  std::string variant;  // abort_retry/wait_timeout, none/watermarks
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::size_t limbo_hwm = 0;
  std::uint64_t soft_passes = 0;
  std::uint64_t quota_sheds = 0;
  std::uint64_t alloc_failures = 0;  // arena exhausted mid-transaction
  double worker_cpu_seconds = 0.0;
  double commits_per_cpu_sec = 0.0;
};

struct Params {
  double cell_seconds = 1.0;
  unsigned repeats = 2;
  unsigned max_threads = 8;
  std::uint64_t seed = 0x7042;
  unsigned cm_wait_spin_limit = 4096;
};

// ---- contention A/B -------------------------------------------------------
// Every transaction read-modify-writes 4 of 16 hot words: write-write
// conflicts on the orec table are the norm, which is exactly where the
// loser's choice — abort now vs wait for the owner with a timeout —
// changes the outcome.
CellResult run_contention_cell(stm::ContentionMode mode, unsigned threads,
                               const Params& p) {
  constexpr unsigned kHotWords = 16;
  constexpr unsigned kTouches = 4;
  core::ViewConfig vc;
  vc.algo = stm::Algo::kOrecEagerRedo;  // the engine with wait-CM sites
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = threads;
  vc.initial_bytes = std::size_t{1} << 20;
  vc.engine.contention_mode = mode;
  vc.engine.cm_wait_spin_limit = p.cm_wait_spin_limit;
  core::View view(vc);

  auto* hot = static_cast<Word*>(view.alloc(kHotWords * sizeof(Word)));
  view.execute([&] {
    for (unsigned i = 0; i < kHotWords; ++i) core::vwrite<Word>(&hot[i], 0);
  });

  CellResult r;
  r.workload = "contention";
  r.engine = stm::to_string(vc.algo);
  r.threads = threads;
  r.variant = stm::to_string(mode);

  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> cpu_ns{0};
  StartBarrier barrier(threads);
  const auto wall = std::chrono::duration<double>(p.cell_seconds);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(p.seed * (t + 1) + 0x9E37);
      barrier.arrive_and_wait();
      const auto stop_at = std::chrono::steady_clock::now() + wall;
      const double cpu0 = thread_cpu_seconds();
      std::uint64_t local = 0;
      while (std::chrono::steady_clock::now() < stop_at) {
        view.execute([&] {
          for (unsigned k = 0; k < kTouches; ++k) {
            core::vadd<Word>(&hot[rng.below(kHotWords)], 1);
          }
        });
        ++local;
      }
      commits.fetch_add(local, std::memory_order_relaxed);
      cpu_ns.fetch_add(
          static_cast<std::uint64_t>((thread_cpu_seconds() - cpu0) * 1e9),
          std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();

  const stm::StatsSnapshot st = view.stats();
  r.commits = commits.load();
  r.aborts = st.aborts;
  r.worker_cpu_seconds = static_cast<double>(cpu_ns.load()) * 1e-9;
  r.commits_per_cpu_sec =
      r.worker_cpu_seconds > 0
          ? static_cast<double>(r.commits) / r.worker_cpu_seconds
          : 0.0;
  return r;
}

// ---- overload A/B ---------------------------------------------------------
// Alloc/free churn with a lazy amortized reclaim trigger (threshold 512,
// identical in both cells — the pre-PR shape): without watermarks the
// limbo depth rides the amortized cadence and overshoots it whenever
// pinned epochs stall a pass; with them, the soft mark (64) forces
// passes early and the hard mark (256) sheds admission quota, bounding
// the high-water mark well below the trigger.
CellResult run_overload_cell(bool watermarks, unsigned threads,
                             const Params& p) {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kOrecEagerRedo;
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = threads;
  vc.initial_bytes = std::size_t{1} << 24;
  vc.reclaim_threshold = 512;
  if (watermarks) {
    vc.limbo_soft_watermark = 64;
    vc.limbo_hard_watermark = 256;
  }
  core::View view(vc);

  CellResult r;
  r.workload = "overload";
  r.engine = stm::to_string(vc.algo);
  r.threads = threads;
  r.variant = watermarks ? "watermarks" : "none";

  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> alloc_failures{0};
  std::atomic<std::uint64_t> cpu_ns{0};
  StartBarrier barrier(threads);
  const auto wall = std::chrono::duration<double>(p.cell_seconds);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(p.seed * (t + 3) + 0x51ED);
      barrier.arrive_and_wait();
      const auto stop_at = std::chrono::steady_clock::now() + wall;
      const double cpu0 = thread_cpu_seconds();
      std::uint64_t local = 0;
      while (std::chrono::steady_clock::now() < stop_at) {
        try {
          view.execute([&] {
            auto* b = static_cast<Word*>(view.alloc(sizeof(Word) * 4));
            core::vwrite<Word>(b, rng.below(1u << 20));
            view.free(b);  // retires through the limbo list at commit
          });
          ++local;
        } catch (const std::bad_alloc&) {
          // The overload failure mode itself: limbo outran the arena and
          // a forced pass could not reclaim (every epoch pinned). The
          // transaction was rolled back; back off and report the event —
          // the watermark cells exist to drive this count to zero.
          alloc_failures.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
      commits.fetch_add(local, std::memory_order_relaxed);
      cpu_ns.fetch_add(
          static_cast<std::uint64_t>((thread_cpu_seconds() - cpu0) * 1e9),
          std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();

  const WatchdogSample h = view.health();
  view.reclaim_garbage();
  r.commits = commits.load();
  r.aborts = view.stats().aborts;
  r.limbo_hwm = h.overload.limbo_depth_hwm;
  r.soft_passes = h.overload.soft_passes;
  r.quota_sheds = h.overload.quota_sheds;
  r.alloc_failures = alloc_failures.load();
  r.worker_cpu_seconds = static_cast<double>(cpu_ns.load()) * 1e-9;
  r.commits_per_cpu_sec =
      r.worker_cpu_seconds > 0
          ? static_cast<double>(r.commits) / r.worker_cpu_seconds
          : 0.0;
  return r;
}

// ---- chaos phase ----------------------------------------------------------
// The everything-at-once shake: the bench-scale sibling of
// tests/test_torture.cpp's run_phase. Returns false (and prints why) if
// the overload contract breaks.
bool run_chaos(double seconds, const Params& p) {
  constexpr unsigned kWorkers = 4;
  core::ViewConfig vc;
  vc.algo = stm::Algo::kOrecEagerRedo;
  vc.max_threads = kWorkers;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = kWorkers;
  vc.initial_bytes = std::size_t{1} << 20;
  vc.engine.contention_mode = stm::ContentionMode::kWaitTimeout;
  vc.engine.cm_wait_spin_limit = 256;
  vc.reclaim_threshold = 8;
  vc.limbo_soft_watermark = 24;
  vc.limbo_hard_watermark = 48;
  vc.escalation.enabled = true;
  vc.escalation.aging_after = 2;
  vc.escalation.serial_after = 6;
  core::View view(vc);

  auto* cell = static_cast<Word*>(view.alloc(sizeof(Word)));
  view.execute([&] { core::vwrite<Word>(cell, 0); });

  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> deadline_hits{0};
  const auto stop_at = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(seconds);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(p.seed * 31 + t);
      while (std::chrono::steady_clock::now() < stop_at) {
        const std::uint64_t r = rng.below(100);
        if (r < 55) {
          view.execute([&] { core::vadd<Word>(cell, 1); });
          commits.fetch_add(1, std::memory_order_relaxed);
        } else if (r < 85) {
          view.execute([&] {
            auto* b = static_cast<Word*>(view.alloc(sizeof(Word)));
            core::vwrite<Word>(b, r);
            view.free(b);
          });
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          try {
            view.run_for(std::chrono::nanoseconds(rng.below(300'000)),
                         [&] { core::vadd<Word>(cell, 1); });
            commits.fetch_add(1, std::memory_order_relaxed);
          } catch (const stm::DeadlineExceeded&) {
            deadline_hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread mutator([&] {
    Xoshiro256 rng(p.seed ^ 0xC0FFEE);
    while (std::chrono::steady_clock::now() < stop_at) {
      view.set_quota(1 + static_cast<unsigned>(rng.below(kWorkers)));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    view.set_quota(kWorkers);
  });
  for (auto& w : workers) w.join();
  mutator.join();

  view.reclaim_garbage();
  const stm::ReclaimStats rs = view.reclaim_stats();
  const WatchdogSample h = view.health();
  bool ok = true;
  if (rs.depth != 0 || rs.retired != rs.reclaimed) {
    std::printf("chaos: LEAK — limbo depth %zu, retired %llu vs "
                "reclaimed %llu\n",
                rs.depth, static_cast<unsigned long long>(rs.retired),
                static_cast<unsigned long long>(rs.reclaimed));
    ok = false;
  }
  if (h.admitted != 0 || h.serial_holder != -1) {
    std::printf("chaos: LEDGER — %u still admitted, serial holder %d\n",
                h.admitted, h.serial_holder);
    ok = false;
  }
  std::printf("chaos: %.1fs, %llu commits, %llu deadline outcomes, "
              "limbo hwm %zu, %llu forced passes, %llu quota sheds — %s\n",
              seconds, static_cast<unsigned long long>(commits.load()),
              static_cast<unsigned long long>(deadline_hits.load()),
              h.overload.limbo_depth_hwm,
              static_cast<unsigned long long>(h.overload.soft_passes),
              static_cast<unsigned long long>(h.overload.quota_sheds),
              ok ? "clean" : "VIOLATIONS");
  return ok;
}

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
  std::printf(
      "%-11s %-14s %8u %13s %10llu %10llu %9zu %7llu %6llu %9llu %14.0f\n",
      r.workload.c_str(), r.engine.c_str(), r.threads, r.variant.c_str(),
      static_cast<unsigned long long>(r.commits),
      static_cast<unsigned long long>(r.aborts), r.limbo_hwm,
      static_cast<unsigned long long>(r.soft_passes),
      static_cast<unsigned long long>(r.quota_sheds),
      static_cast<unsigned long long>(r.alloc_failures),
      r.commits_per_cpu_sec);
}

void write_json(const std::string& path, const std::vector<CellResult>& rs,
                const Params& p, const std::string& wait_variant,
                const std::string& abort_variant) {
  std::ofstream out(path);
  char buf[448];
  out << "{\n  \"bench\": \"torture\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"hardware_concurrency\": %u,\n"
                "  \"cell_seconds\": %.3g,\n  \"repeats\": %u,\n"
                "  \"cm_wait_spin_limit\": %u,\n  \"results\": [\n",
                std::thread::hardware_concurrency(), p.cell_seconds,
                p.repeats, p.cm_wait_spin_limit);
  out << buf;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const CellResult& r = rs[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"workload\": \"%s\", \"engine\": \"%s\", \"threads\": %u, "
        "\"variant\": \"%s\", \"commits\": %llu, \"aborts\": %llu, "
        "\"limbo_depth_hwm\": %zu, \"soft_passes\": %llu, "
        "\"quota_sheds\": %llu, \"alloc_failures\": %llu, "
        "\"worker_cpu_seconds\": %.6g, "
        "\"commits_per_cpu_sec\": %.6g}%s\n",
        r.workload.c_str(), r.engine.c_str(), r.threads, r.variant.c_str(),
        static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.aborts), r.limbo_hwm,
        static_cast<unsigned long long>(r.soft_passes),
        static_cast<unsigned long long>(r.quota_sheds),
        static_cast<unsigned long long>(r.alloc_failures),
        r.worker_cpu_seconds, r.commits_per_cpu_sec,
        i + 1 < rs.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"wait_vs_abort\": [\n";
  bool first = true;
  for (const CellResult& r : rs) {
    if (r.workload != "contention" || r.variant != wait_variant) continue;
    const CellResult* base =
        find(rs, "contention", r.threads, abort_variant);
    if (base == nullptr || base->commits_per_cpu_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"engine\": \"%s\", \"threads\": %u, "
                  "\"ratio\": %.4g, \"aborts_wait\": %llu, "
                  "\"aborts_abort_retry\": %llu}\n",
                  first ? "" : ",", r.engine.c_str(), r.threads,
                  r.commits_per_cpu_sec / base->commits_per_cpu_sec,
                  static_cast<unsigned long long>(r.aborts),
                  static_cast<unsigned long long>(base->aborts));
    out << buf;
    first = false;
  }
  out << "  ],\n  \"watermarks_vs_none\": [\n";
  first = true;
  for (const CellResult& r : rs) {
    if (r.workload != "overload" || r.variant != "watermarks") continue;
    const CellResult* base = find(rs, "overload", r.threads, "none");
    if (base == nullptr || base->commits_per_cpu_sec <= 0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %s{\"threads\": %u, \"throughput_ratio\": %.4g, "
                  "\"limbo_hwm_watermarks\": %zu, \"limbo_hwm_none\": %zu, "
                  "\"soft_passes\": %llu, \"quota_sheds\": %llu, "
                  "\"alloc_failures_watermarks\": %llu, "
                  "\"alloc_failures_none\": %llu}\n",
                  first ? "" : ",", r.threads,
                  r.commits_per_cpu_sec / base->commits_per_cpu_sec,
                  r.limbo_hwm, base->limbo_hwm,
                  static_cast<unsigned long long>(r.soft_passes),
                  static_cast<unsigned long long>(r.quota_sheds),
                  static_cast<unsigned long long>(r.alloc_failures),
                  static_cast<unsigned long long>(base->alloc_failures));
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Chaos torture harness and robustness A/B bench: wait-with-timeout "
      "contention management vs abort-and-retry on a hot-word workload, "
      "limbo watermarks on vs off under alloc/free churn, plus an "
      "everything-at-once chaos phase (deadlines, quota churn, overload) "
      "that checks the no-wedge/no-leak contract.");
  flags
      .flag("duration", "5",
            "total seconds across all measured cells (5 for CI; minutes "
            "for a real torture run)")
      .flag("threads", "8", "max thread count (contention cells at 1/2/4/..max)")
      .flag("seed", "28738", "base RNG seed for workloads and chaos")
      .flag("repeats", "2", "runs per cell; best throughput reported")
      .flag("cm-wait-spin-limit", "4096",
            "wait-CM spin budget before timeout fallback "
            "(EngineConfig::cm_wait_spin_limit)")
      .flag("no-chaos", "0", "skip the chaos phase (JSON cells only)")
      .flag("out", "BENCH_robustness.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  Params p;
  p.max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("threads")));
  p.seed = static_cast<std::uint64_t>(flags.i64("seed"));
  p.repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  p.cm_wait_spin_limit = static_cast<unsigned>(
      std::max<std::int64_t>(1, flags.i64("cm-wait-spin-limit")));
  double duration = std::max(0.5, flags.f64("duration"));
  bool chaos = !flags.boolean("no-chaos");
  if (flags.boolean("smoke")) {
    duration = std::min(duration, 2.0);
    p.repeats = 1;
  }

  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t <= p.max_threads; t *= 2) thread_counts.push_back(t);
  if (thread_counts.back() != p.max_threads) {
    thread_counts.push_back(p.max_threads);
  }

  // Budget: every measured cell gets an equal slice of --duration per
  // repeat; the chaos phase takes one extra slice.
  const std::size_t n_cells = thread_counts.size() * 2 + 2;
  p.cell_seconds =
      duration / (static_cast<double>(n_cells * p.repeats) + (chaos ? 1 : 0));

  const std::string abort_name =
      stm::to_string(stm::ContentionMode::kAbortRetry);
  const std::string wait_name =
      stm::to_string(stm::ContentionMode::kWaitTimeout);

  std::vector<CellResult> results;
  std::printf("%-11s %-14s %8s %13s %10s %10s %9s %7s %6s %9s %14s\n",
              "workload", "engine", "threads", "variant", "commits",
              "aborts", "limbo_hwm", "passes", "sheds", "allocfail",
              "commits/cpu_s");
  for (unsigned t : thread_counts) {
    CellResult best[2];
    for (unsigned rep = 0; rep < p.repeats; ++rep) {
      // Interleave A and B inside each repeat (see header).
      for (int v = 0; v < 2; ++v) {
        const stm::ContentionMode mode =
            v == 0 ? stm::ContentionMode::kAbortRetry
                   : stm::ContentionMode::kWaitTimeout;
        CellResult r = run_contention_cell(mode, t, p);
        if (rep == 0 || r.commits_per_cpu_sec > best[v].commits_per_cpu_sec) {
          best[v] = r;
        }
      }
    }
    for (int v = 0; v < 2; ++v) {
      results.push_back(best[v]);
      print_row(best[v]);
    }
  }
  {
    const unsigned t = std::min(4u, p.max_threads);
    CellResult best[2];
    for (unsigned rep = 0; rep < p.repeats; ++rep) {
      for (int v = 0; v < 2; ++v) {
        CellResult r = run_overload_cell(v == 1, t, p);
        if (rep == 0 || r.commits_per_cpu_sec > best[v].commits_per_cpu_sec) {
          best[v] = r;
        }
      }
    }
    for (int v = 0; v < 2; ++v) {
      results.push_back(best[v]);
      print_row(best[v]);
    }
  }

  std::printf("\nwait_timeout vs abort_retry (commits/cpu_s):\n");
  for (const CellResult& r : results) {
    if (r.workload != "contention" || r.variant != wait_name) continue;
    const CellResult* base = find(results, "contention", r.threads, abort_name);
    if (base == nullptr || base->commits_per_cpu_sec <= 0) continue;
    std::printf("  %s threads=%u: %.2fx (aborts %llu vs %llu)\n",
                r.engine.c_str(), r.threads,
                r.commits_per_cpu_sec / base->commits_per_cpu_sec,
                static_cast<unsigned long long>(r.aborts),
                static_cast<unsigned long long>(base->aborts));
  }
  std::printf("limbo watermarks vs none:\n");
  for (const CellResult& r : results) {
    if (r.workload != "overload" || r.variant != "watermarks") continue;
    const CellResult* base = find(results, "overload", r.threads, "none");
    if (base == nullptr) continue;
    std::printf("  threads=%u: hwm %zu vs %zu, %llu forced passes, "
                "%llu sheds, alloc failures %llu vs %llu, throughput %.2fx\n",
                r.threads, r.limbo_hwm, base->limbo_hwm,
                static_cast<unsigned long long>(r.soft_passes),
                static_cast<unsigned long long>(r.quota_sheds),
                static_cast<unsigned long long>(r.alloc_failures),
                static_cast<unsigned long long>(base->alloc_failures),
                base->commits_per_cpu_sec > 0
                    ? r.commits_per_cpu_sec / base->commits_per_cpu_sec
                    : 0.0);
  }

  bool chaos_ok = true;
  if (chaos) {
    std::printf("\n");
    chaos_ok = run_chaos(p.cell_seconds, p);
  }

  write_json(flags.str("out"), results, p, wait_name, abort_name);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return chaos_ok ? 0 : 1;
}
