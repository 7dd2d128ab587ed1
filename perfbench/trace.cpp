#include "trace.hpp"

#include <algorithm>
#include <limits>

namespace perfbench {

const char* const kSpanNames[static_cast<int>(SpanName::kCount)] = {
    "atomic",
    "view.enter",
    "body",
    "view.exit",
    "abort",
    "TxQueue.pop",
    "TxDictionary.insert",
    "ResourceTable.query",
    "ResourceTable.reserve",
    "ResourceTable.add",
    "ResourceTable.retire",
    "ResourceTable.release",
    "CustomerTable.add_reservation",
    "CustomerTable.remove_customer",
    "CustomerTable.add_customer",
    "intruder.scan",
};

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t total_commits(const std::vector<votm::core::View*>& views) {
  std::uint64_t commits = 0;
  for (const votm::core::View* v : views) commits += v->stats().commits;
  return commits;
}

void view_metrics(const std::vector<votm::core::View*>& views, Metrics& out) {
  constexpr double kMb = 1024.0 * 1024.0;
  votm::stm::StatsSnapshot total;
  double streak_hwm = 0, capacity = 0, allocated = 0, limbo_hwm = 0,
         reclaimed = 0, quota_changes = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    votm::core::View& v = *views[i];
    const votm::stm::StatsSnapshot s = v.stats();
    total += s;
    streak_hwm = std::max(streak_hwm,
                          static_cast<double>(v.consecutive_abort_hwm()));
    capacity += static_cast<double>(v.arena().capacity()) / kMb;
    allocated += static_cast<double>(v.arena().allocated()) / kMb;
    const votm::stm::ReclaimStats rs = v.reclaim_stats();
    limbo_hwm += static_cast<double>(rs.depth_hwm);
    reclaimed += static_cast<double>(rs.reclaimed);
    for (const votm::rac::TracePoint& p : v.adaptation_trace().snapshot()) {
      if (p.quota_before != p.quota_after) ++quota_changes;
    }
    const std::string suffix = ".v" + std::to_string(i);
    out["rac.final_quota" + suffix] = v.quota();
    out["rac.delta" + suffix] = v.whole_run_delta();
  }
  out["stm.abort_ratio"] =
      total.commits == 0 ? 0.0
                         : static_cast<double>(total.aborts) /
                               static_cast<double>(total.commits);
  const double cycles =
      static_cast<double>(total.aborted_cycles + total.committed_cycles);
  out["stm.wasted_cycle_share"] =
      cycles == 0 ? 0.0 : static_cast<double>(total.aborted_cycles) / cycles;
  out["stm.abort_streak_hwm"] = streak_hwm;
  out["core.arena_capacity_mb"] = capacity;
  out["core.arena_allocated_mb"] = allocated;
  out["stm.limbo_depth_hwm"] = limbo_hwm;
  out["stm.reclaimed_blocks"] = reclaimed;
  out["rac.quota_changes"] = quota_changes;
}

namespace {

bool is_app_call(SpanName n) {
  return n >= SpanName::kQueuePop && n < SpanName::kScan;
}

double mean(double sum, double count) { return count == 0 ? 0.0 : sum / count; }

// insert time late in the round over insert time early in it, per thread.
double growth(const std::vector<double>& in_order) {
  const std::size_t tenth = in_order.size() / 10;
  double first = 0, last = 0;
  for (std::size_t i = 0; i < tenth; ++i) {
    first += in_order[i];
    last += in_order[in_order.size() - 1 - i];
  }
  return first == 0 ? 0.0 : last / first;
}

}  // namespace

Metrics digest(const std::vector<ThreadTrace>& threads, const TraceSpec& spec) {
  constexpr int kNames = static_cast<int>(SpanName::kCount);
  double self_sum[kNames] = {};
  double count[kNames] = {};
  double dur_sum[kNames] = {};
  double committed_dur[kNames] = {};
  double committed_count[kNames] = {};
  double committed_self[kNames] = {};
  double wasted = 0, wall = 0, accesses = 0;
  double coverage_min = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> execute_ns(spec.views);
  std::vector<double> inserts, growths;
  std::map<std::uint8_t, double> task_app_ns, task_count;

  for (const ThreadTrace& t : threads) {
    const std::vector<SpanRecord>& spans = t.log->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent != kNoParent) child[s.parent] += s.dur_ns;
    }
    std::vector<double> thread_inserts;
    double covered = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const int n = static_cast<int>(s.name);
      const double self = s.dur_ns - child[i];
      self_sum[n] += self;
      count[n] += 1;
      dur_sum[n] += s.dur_ns;
      if (s.parent == kNoParent) covered += s.dur_ns;
      if (s.name == SpanName::kAbort ||
          (s.aborted && s.parent != kNoParent &&
           spans[s.parent].name == SpanName::kAtomic)) {
        wasted += s.dur_ns;
      }
      if (s.aborted) continue;
      committed_dur[n] += s.dur_ns;
      committed_self[n] += self;
      committed_count[n] += 1;
      if (s.name == SpanName::kAtomic && s.view < execute_ns.size()) {
        execute_ns[s.view].push_back(s.dur_ns);
      } else if (s.name == SpanName::kBody &&
                 s.view < spec.accesses_per_commit.size()) {
        accesses += spec.accesses_per_commit[s.view];
      } else if (s.name == SpanName::kDictInsert) {
        thread_inserts.push_back(s.dur_ns);
      }
      if (is_app_call(s.name)) task_app_ns[s.tag] += s.dur_ns;
    }
    const std::vector<std::uint64_t>& tasks = t.log->tasks();
    for (std::size_t tag = 0; tag < tasks.size(); ++tag) {
      task_count[static_cast<std::uint8_t>(tag)] += static_cast<double>(tasks[tag]);
    }
    if (thread_inserts.size() >= 10) growths.push_back(growth(thread_inserts));
    inserts.insert(inserts.end(), thread_inserts.begin(), thread_inserts.end());
    wall += t.wall_ns;
    coverage_min = std::min(coverage_min, t.wall_ns == 0 ? 0.0 : covered / t.wall_ns);
  }

  auto at = [](SpanName n) { return static_cast<int>(n); };
  const double txs = committed_count[at(SpanName::kAtomic)];
  Metrics m;
  m["core.enter_ns"] = mean(committed_self[at(SpanName::kEnter)], txs);
  m["core.exit_ns"] = mean(committed_self[at(SpanName::kExit)], txs);
  // Per attempt, committed or not, including the application calls it makes.
  m["core.body_ns"] = mean(dur_sum[at(SpanName::kBody)], count[at(SpanName::kBody)]);
  m["core.wasted_ns_per_tx"] = mean(wasted, txs);
  m["core.attempts_per_tx"] = mean(count[at(SpanName::kEnter)], txs);
  for (std::size_t v = 0; v < execute_ns.size(); ++v) {
    const std::string suffix = ".v" + std::to_string(v);
    m["core.execute_us_p50" + suffix] = quantile(execute_ns[v], 0.50) / 1e3;
    m["core.execute_us_p99" + suffix] = quantile(execute_ns[v], 0.99) / 1e3;
  }
  if (!spec.accesses_per_commit.empty()) {
    m["eigenbench.ns_per_access"] =
        mean(committed_dur[at(SpanName::kBody)], accesses);
  }
  if (count[at(SpanName::kQueuePop)] > 0) {
    m["intruder.pop_ns"] = mean(committed_dur[at(SpanName::kQueuePop)],
                                committed_count[at(SpanName::kQueuePop)]);
    m["intruder.insert_ns_p50"] = quantile(inserts, 0.50);
    m["intruder.insert_ns_p99"] = quantile(inserts, 0.99);
    double g = 0;
    for (double x : growths) g += x;
    m["intruder.insert_growth"] = mean(g, static_cast<double>(growths.size()));
    m["intruder.scan_ns"] = mean(committed_dur[at(SpanName::kScan)],
                                 committed_count[at(SpanName::kScan)]);
  }
  for (const auto& [tag, name] : spec.task_metrics) {
    m[name] = mean(task_app_ns[tag], task_count[tag]);
  }
  for (int n = 0; n < kNames; ++n) {
    if (count[n] == 0) continue;
    const std::string base = std::string("span.") + kSpanNames[n];
    m[base + ".self_ns"] = self_sum[n] / count[n];
    m[base + ".share"] = mean(self_sum[n], wall);
  }
  m["trace.coverage_min"] = threads.empty() ? 0.0 : coverage_min;
  return m;
}

}  // namespace perfbench
