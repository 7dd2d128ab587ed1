// Benchmark driver: runs one workload in rounds for a fixed time and
// prints one JSON object of metrics as its last line of output.
//
//   votm_perfbench --workload eigen|intruder|vacation --seed N --seconds S
//                  [--trace 0|1] [--threads N] [--smoke 1] [--parity 1]
//   votm_perfbench --list-metrics
//
// A round builds its input from the seed (timed as set-up), then N worker
// threads run it to completion (timed as the run), then its correctness
// gate runs. --trace 0 reports the end-to-end metrics over untraced rounds.
// --trace 1 alternates untraced and traced rounds and reports the
// per-layer metrics, taken from the traced ones, plus the tracing overhead.
// --parity 1 runs one round and the library's own driver for the same
// input, and reports both commit counts.
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool parity = false;
  unsigned threads = 0;  // 0 = nproc
};

// A round running longer than this is stuck: the process exits instead of
// reporting (livelock guard, off the timed path).
constexpr double kRoundCapSeconds = 60;

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"ops_per_s", "1/s"},
      {"cpu_us_per_op", "us"},
      {"peak_rss_mb", "MB"},
      {"setup_s", "s"},
      {"completed_ops_share", "share"},
  };
  return list;
}

constexpr unsigned kMaxViews = 4;

const MetricList& per_layer_metrics() {
  static const MetricList list = [] {
    MetricList l = {
        {"core.enter_ns", "ns"},
        {"core.exit_ns", "ns"},
        {"core.body_ns", "ns"},
        {"core.wasted_ns_per_tx", "ns"},
        {"core.attempts_per_tx", "ratio"},
    };
    for (unsigned v = 0; v < kMaxViews; ++v) {
      l.emplace_back("core.execute_us_p50.v" + std::to_string(v), "us");
      l.emplace_back("core.execute_us_p99.v" + std::to_string(v), "us");
    }
    const MetricList rest = {
        {"core.arena_capacity_mb", "MB"},
        {"core.arena_allocated_mb", "MB"},
        {"eigenbench.ns_per_access", "ns"},
        {"stm.abort_ratio", "aborts/commit"},
        {"stm.wasted_cycle_share", "share"},
        {"stm.abort_streak_hwm", "count"},
        {"stm.limbo_depth_hwm", "count"},
        {"stm.reclaimed_blocks", "count"},
        {"intruder.pop_ns", "ns"},
        {"intruder.insert_ns_p50", "ns"},
        {"intruder.insert_ns_p99", "ns"},
        {"intruder.insert_growth", "ratio"},
        {"intruder.scan_ns", "ns"},
        {"vacation.reserve_ns", "ns"},
        {"vacation.customer_ns", "ns"},
        {"vacation.update_ns", "ns"},
        {"rac.quota_changes", "count"},
    };
    l.insert(l.end(), rest.begin(), rest.end());
    for (unsigned v = 0; v < kMaxViews; ++v) {
      l.emplace_back("rac.final_quota.v" + std::to_string(v), "count");
      l.emplace_back("rac.delta.v" + std::to_string(v), "ratio");
    }
    for (const char* name : kSpanNames) {
      l.emplace_back(std::string("span.") + name + ".self_ns", "ns");
      l.emplace_back(std::string("span.") + name + ".share", "share");
    }
    l.emplace_back("trace.overhead", "ratio");
    l.emplace_back("trace.coverage_min", "share");
    return l;
  }();
  return list;
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "votm_perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RoundTiming {
  double run_s = 0;
  double cpu_s = 0;
  std::vector<double> thread_wall_ns;
};

// Runs round.work on `n` threads. Threads are spawned and parked first; the
// clock starts when they are released and stops when the last one ends, so
// thread creation and joining stay outside the measurement.
template <class Log, class Round>
RoundTiming run_threads(Round& round, unsigned n, std::vector<Log>& logs) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<Clock::time_point> begin(n), end(n);
  std::mutex mu;
  std::condition_variable cv;
  unsigned done = 0;
  std::string error;

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      begin[t] = Clock::now();
      try {
        round.work(t, logs[t]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu);
        error = e.what();
      }
      end[t] = Clock::now();
      std::lock_guard<std::mutex> lk(mu);
      ++done;
      cv.notify_one();
    });
  }
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lk(mu);
    const auto cap = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kRoundCapSeconds));
    if (!cv.wait_until(lk, cap, [&] { return done == n; })) {
      die("round did not finish within " + std::to_string(kRoundCapSeconds) +
          " s (livelock?)");
    }
    if (!error.empty()) die("worker failed: " + error);
  }
  for (auto& th : threads) th.join();

  RoundTiming timing;
  timing.cpu_s = cpu_seconds() - cpu0;
  Clock::time_point last = start;
  for (unsigned t = 0; t < n; ++t) {
    last = std::max(last, end[t]);
    timing.thread_wall_ns.push_back(
        std::chrono::duration<double, std::nano>(end[t] - begin[t]).count());
  }
  timing.run_s = seconds_between(start, last);
  return timing;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

void print_number(double x) {
  std::printf("%.17g", std::isfinite(x) ? x : 0.0);
}

void print_metrics(const MetricList& list, const Metrics& values) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, unit] : list) {
    const auto it = values.find(name);
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    print_number(it == values.end() ? 0.0 : it->second);
    std::printf(", \"unit\": \"%s\"}", unit.c_str());
    first = false;
  }
  std::printf("}");
}

void print_metric_list(const char* key, const MetricList& list) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < list.size(); ++i) {
    std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", list[i].first.c_str(),
                list[i].second.c_str());
  }
  std::printf("]");
}

template <class Round>
int parity(const Options& o, unsigned n) {
  const RoundConfig rc{n, o.seed, o.smoke, false};
  std::uint64_t driver_commits = 0, failed = 0;
  {
    Round round(rc);
    std::vector<NoSpans> none(n);
    run_threads(round, round.workers(), none);
    failed = round.failed();  // the gate's own transactions count on both sides
    driver_commits = total_commits(round.views());
  }
  const std::uint64_t world = Round::world_commits(rc);
  std::printf("{\"workload\": \"%s\", \"threads\": %u, \"failed\": %llu, "
              "\"driver_commits\": %llu, \"world_commits\": %llu}\n",
              o.workload.c_str(), n, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(driver_commits),
              static_cast<unsigned long long>(world));
  return 0;
}

template <class Round>
int bench(const Options& o, unsigned n) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  std::vector<double> setup_s, plain_ops_s, traced_ops_s, cpu_us_per_op;
  std::vector<Metrics> layers;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<SpanLog> logs(n);
  std::vector<NoSpans> none(n);

  // Traced runs alternate untraced and traced rounds, at least two of each.
  const unsigned min_rounds = o.trace ? 4 : 3;
  for (unsigned r = 0; r < min_rounds || Clock::now() < deadline; ++r) {
    const bool traced = o.trace && r % 2 == 1;
    const RoundConfig rc{n, o.seed, o.smoke, traced};
    const Clock::time_point t0 = Clock::now();
    Round round(rc);
    const double setup = seconds_between(t0, Clock::now());
    RoundTiming timing;
    if (traced) {
      for (SpanLog& log : logs) log.reset(Clock::now());
      timing = run_threads(round, round.workers(), logs);
    } else {
      timing = run_threads(round, round.workers(), none);
    }
    const std::uint64_t ops = round.ops();
    attempted += ops;
    failed += round.failed();
    const double ops_s = static_cast<double>(ops) / timing.run_s;
    if (traced) {
      traced_ops_s.push_back(ops_s);
      std::vector<ThreadTrace> threads;
      for (unsigned t = 0; t < round.workers(); ++t) {
        threads.push_back(ThreadTrace{&logs[t], timing.thread_wall_ns[t]});
      }
      Metrics m = digest(threads, round.trace_spec());
      view_metrics(round.views(), m);
      layers.push_back(std::move(m));
    } else {
      plain_ops_s.push_back(ops_s);
      cpu_us_per_op.push_back(timing.cpu_s * 1e6 / static_cast<double>(ops));
      setup_s.push_back(setup);
    }
  }

  Metrics out;
  const MetricList* list = &end_to_end_metrics();
  if (o.trace) {
    list = &per_layer_metrics();
    for (const auto& [name, unit] : *list) {
      std::vector<double> values;
      for (const Metrics& m : layers) {
        const auto it = m.find(name);
        values.push_back(it == m.end() ? 0.0 : it->second);
      }
      out[name] = median(values);
    }
    out["trace.overhead"] = median(plain_ops_s) / median(traced_ops_s);
  } else {
    out["ops_per_s"] = median(plain_ops_s);
    out["cpu_us_per_op"] = median(cpu_us_per_op);
    out["peak_rss_mb"] = peak_rss_mb();
    out["setup_s"] = median(setup_s);
    out["completed_ops_share"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %u, "
              "\"smoke\": %s, \"trace\": %s, "
              "\"build\": {\"VOTM_SCHED_POINTS\": %d, "
              "\"VOTM_VALIDATION_FILTERS\": %d, \"VOTM_MVCC\": %d}, "
              "\"rounds_untraced\": %zu, \"rounds_traced\": %zu, "
              "\"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), n,
              o.smoke ? "true" : "false", o.trace ? "true" : "false",
              VOTM_SCHED_POINTS, VOTM_VALIDATION_FILTERS, VOTM_MVCC,
              plain_ops_s.size(), traced_ops_s.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics(*list, out);
  std::printf("}\n");
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      std::printf("{");
      print_metric_list("end_to_end", end_to_end_metrics());
      std::printf(", ");
      print_metric_list("per_layer", per_layer_metrics());
      std::printf("}\n");
      std::exit(0);
    }
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &rest, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &rest);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--smoke") {
      o.smoke = value == "1";
    } else if (flag == "--parity") {
      o.parity = value == "1";
    } else if (flag == "--threads") {
      o.threads = static_cast<unsigned>(std::strtoul(value.c_str(), &rest, 10));
    } else {
      die("unknown flag " + flag);
    }
    if (rest != nullptr && *rest != '\0') die("bad value for " + flag);
  }
  if (o.seconds <= 0) die("--seconds must be positive");
  return o;
}

template <class Round>
int dispatch(const Options& o, unsigned n) {
  return o.parity ? parity<Round>(o, n) : bench<Round>(o, n);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  const unsigned n = o.threads != 0 ? o.threads : nproc();
  if (o.workload == "eigen") return dispatch<EigenRound>(o, n);
  if (o.workload == "intruder") return dispatch<IntruderRound>(o, n);
  if (o.workload == "vacation") return dispatch<VacationRound>(o, n);
  die("unknown workload '" + o.workload + "' (eigen, intruder, vacation)");
}
