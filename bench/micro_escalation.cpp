// A/B harness for the escalation ladder: the paper's pathological workload
// (one hot word, encounter-time locking, no backoff, fixed Q = N) with the
// progress-guarantee ladder off vs on.
//
// What the two cells show:
//   off — the paper's contention regime: throughput survives on luck and
//         individual transactions can starve (the abort-streak high-water
//         mark is unbounded in principle);
//   on  — aging + serial escalation cap every transaction's streak at
//         serial_after, at whatever throughput cost the drains impose. The
//         ratio quantifies the price of the progress guarantee; the hwm
//         column is the guarantee itself (on-cells must stay <= serial_after).
//
// Methodology (bench/repeat_cells.hpp): each repeat runs the off cell and
// then the on cell back to back, so host drift lands on both. Every cell
// reports the median and IQR of its repeats, and the on/off ratios are
// taken per repeat before their median is reported. The 1-thread cells
// have no aborts for the ladder to act on, so their ratio is the drift
// check: it should read 1.0 within its IQR. The hwm column is the maximum
// over repeats, since the guarantee must hold in every one.
//
// Results go to stdout and a JSON file (default BENCH_escalation.json) so
// the trajectory is tracked across PRs.
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
#include "util/cli.hpp"
#include "util/cycles.hpp"

namespace {

using namespace votm;

struct LadderKnobs {
  std::uint64_t aging_after;
  std::uint64_t serial_after;
};

// One repeat of one cell.
struct Repeat {
  bench::CellResult span;
  std::uint64_t aborts = 0;
  std::uint64_t hwm = 0;
};

// One cell over its repeats: medians, quartiles and the per-repeat series.
struct Cell {
  bench::CellResult span;     // summarize()d
  bench::Spread ops_per_sec;  // wall-clock throughput
  std::uint64_t aborts = 0;   // median
  std::uint64_t hwm = 0;      // max
};

Repeat run_one(bool escalation, unsigned threads, std::uint64_t ops_per_thread,
               const LadderKnobs& knobs) {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kOrecEagerRedo;  // encounter-time locks: the paper's
                                        // livelock-prone configuration
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = threads;  // no quota rescue: isolate the ladder
  vc.initial_bytes = 1 << 16;
  vc.backoff = BackoffPolicy::kNone;
  vc.escalation.enabled = escalation;
  vc.escalation.aging_after = knobs.aging_after;
  vc.escalation.serial_after = knobs.serial_after;
  core::View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { core::vwrite<stm::Word>(cell, 0); });

  Repeat r;
  r.span = bench::run_span(
      "hot_word", threads, escalation ? "on" : "off", ops_per_thread,
      [&](unsigned) {
        for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
          view.execute([&] {
            // Yield while holding the encounter-time lock: the paper's
            // near-livelock mechanism, and the only way to manufacture
            // contention when cores < threads (every peer that runs in the
            // window aborts against the held orec).
            core::vadd<stm::Word>(cell, 1);
            std::this_thread::yield();
          });
        }
      });
  r.aborts = view.stats().aborts;
  r.hwm = view.consecutive_abort_hwm();
  return r;
}

Cell summarize_cell(const std::vector<Repeat>& reps) {
  std::vector<bench::CellResult> spans;
  std::vector<double> ops;
  std::vector<double> aborts;
  Cell c;
  for (const Repeat& r : reps) {
    spans.push_back(r.span);
    ops.push_back(r.span.wall_seconds > 0
                      ? static_cast<double>(r.span.commits) /
                            r.span.wall_seconds
                      : 0.0);
    aborts.push_back(static_cast<double>(r.aborts));
    c.hwm = std::max(c.hwm, r.hwm);
  }
  c.span = bench::summarize(spans);
  c.ops_per_sec = bench::spread_of(ops);
  c.aborts = static_cast<std::uint64_t>(bench::spread_of(aborts).median);
  return c;
}

void print_row(const Cell& c) {
  std::printf("%-11s %8u %12llu %10.4f %12.0f %12.0f %12.0f %12llu %10llu\n",
              c.span.variant.c_str(), c.span.threads,
              static_cast<unsigned long long>(c.span.commits),
              c.span.wall_seconds, c.ops_per_sec.median, c.ops_per_sec.q1,
              c.ops_per_sec.q3, static_cast<unsigned long long>(c.aborts),
              static_cast<unsigned long long>(c.hwm));
}

void write_json(const std::string& path, const std::vector<Cell>& cells,
                unsigned max_threads, std::uint64_t ops_per_thread,
                const LadderKnobs& knobs, unsigned repeats) {
  std::ofstream out(path);
  char buf[384];
  out << "{\n  \"bench\": \"micro_escalation\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"hardware_concurrency\": %u,\n  \"cycles_per_second\": "
                "%.6g,\n  \"max_threads\": %u,\n  \"ops_per_thread\": %llu,\n"
                "  \"aging_after\": %llu,\n  \"serial_after\": %llu,\n"
                "  \"repeats\": %u,\n"
                "  \"summary\": \"median repeat; *_q1/*_q3 are the quartiles; "
                "hwm is the max over repeats\",\n"
                "  \"results\": [\n",
                std::thread::hardware_concurrency(), cycles_per_second(),
                max_threads, static_cast<unsigned long long>(ops_per_thread),
                static_cast<unsigned long long>(knobs.aging_after),
                static_cast<unsigned long long>(knobs.serial_after), repeats);
  out << buf;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"escalation\": %s, \"threads\": %u, \"ops\": %llu, "
        "\"seconds\": %.6g, \"ops_per_sec\": %.6g, \"ops_per_sec_q1\": "
        "%.6g, \"ops_per_sec_q3\": %.6g, \"tx_per_cpu_sec\": %.6g, "
        "\"aborts\": %llu, \"abort_streak_hwm\": %llu}%s\n",
        c.span.variant == "on" ? "true" : "false", c.span.threads,
        static_cast<unsigned long long>(c.span.commits), c.span.wall_seconds,
        c.ops_per_sec.median, c.ops_per_sec.q1, c.ops_per_sec.q3,
        c.span.tx_per_sec, static_cast<unsigned long long>(c.aborts),
        static_cast<unsigned long long>(c.hwm),
        i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"throughput_on_vs_off\": [\n";
  bool first = true;
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const Cell& off = cells[i];
    const Cell& on = cells[i + 1];
    const bench::Spread wall = bench::wall_speedup(on.span, off.span);
    const bench::Spread cpu = bench::cpu_speedup(on.span, off.span);
    std::snprintf(buf, sizeof buf,
                  "    %s{\"threads\": %u, \"ratio\": %.4g, \"ratio_q1\": "
                  "%.4g, \"ratio_q3\": %.4g, \"cpu_ratio\": %.4g, "
                  "\"cpu_ratio_q1\": %.4g, \"cpu_ratio_q3\": %.4g}\n",
                  first ? "" : ",", on.span.threads, wall.median, wall.q1,
                  wall.q3, cpu.median, cpu.q1, cpu.q3);
    out << buf;
    first = false;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "Escalation ladder A/B microbench: starving hot-word workload with "
      "the progress guarantee off vs on.");
  flags
      .flag("threads", "4",
            "max thread count (swept in powers of two); past the core count "
            "the off cells livelock for minutes, so lower --ops there")
      .flag("ops", "250000",
            "transactions per thread per cell (each cell lasts >= 0.1 s on "
            "a 2 GHz core)")
      .flag("aging", "16", "aging_after threshold (consecutive aborts)")
      .flag("serial", "64", "serial_after threshold (consecutive aborts)")
      .flag("repeats", "5",
            "repeats per cell (off and on back to back in each); the median "
            "is reported with its IQR")
      .flag("out", "BENCH_escalation.json", "JSON output path")
      .flag("smoke", "0",
            "seconds-scale smoke run (CI bench-smoke label; bit-rot check "
            "only, numbers meaningless)");
  flags.parse(argc, argv);

  const bool smoke = flags.boolean("smoke");
  unsigned max_threads =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("threads")));
  auto ops_per_thread = static_cast<std::uint64_t>(flags.i64("ops"));
  LadderKnobs knobs;
  knobs.aging_after = static_cast<std::uint64_t>(flags.i64("aging"));
  knobs.serial_after = static_cast<std::uint64_t>(flags.i64("serial"));
  unsigned repeats =
      static_cast<unsigned>(std::max<std::int64_t>(1, flags.i64("repeats")));
  if (smoke) {
    max_threads = std::min(max_threads, 4u);
    ops_per_thread = std::min<std::uint64_t>(ops_per_thread, 200);
    repeats = 1;
  }

  // Off then on per thread count; write_json relies on the pairing.
  std::vector<Cell> cells;
  std::printf("%-11s %8s %12s %10s %12s %12s %12s %12s %10s\n", "escalation",
              "threads", "ops", "sec", "ops/sec", "q1", "q3", "aborts",
              "hwm");
  for (unsigned threads = 1; threads <= max_threads; threads *= 2) {
    std::vector<Repeat> off;
    std::vector<Repeat> on;
    for (unsigned rep = 0; rep < repeats; ++rep) {
      off.push_back(run_one(false, threads, ops_per_thread, knobs));
      on.push_back(run_one(true, threads, ops_per_thread, knobs));
    }
    cells.push_back(summarize_cell(off));
    cells.push_back(summarize_cell(on));
    print_row(cells[cells.size() - 2]);
    print_row(cells.back());
    if (cells.back().hwm > knobs.serial_after) {
      std::printf("  ^^ PROGRESS GUARANTEE BROKEN: hwm %llu > serial_after "
                  "%llu\n",
                  static_cast<unsigned long long>(cells.back().hwm),
                  static_cast<unsigned long long>(knobs.serial_after));
    }
  }

  std::printf("\nthroughput on / off (median [IQR] of per-repeat ratios):\n");
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const bench::Spread wall =
        bench::wall_speedup(cells[i + 1].span, cells[i].span);
    std::printf("  threads=%u: %.2fx [%.2f, %.2f]\n", cells[i].span.threads,
                wall.median, wall.q1, wall.q3);
  }

  write_json(flags.str("out"), cells, max_threads, ops_per_thread, knobs,
             repeats);
  std::printf("\nwrote %s\n", flags.str("out").c_str());
  return 0;
}
