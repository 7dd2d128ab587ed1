// Extension bench (not a paper table): the Vacation travel-reservation
// workload across the paper's four configurations, for both TM algorithms.
//
// Vacation generalises Intruder's two-view split to FOUR views (three
// resource tables + the customer table) and stresses transactional memory
// management (reservation-list nodes churn constantly). The paper's
// Sec. V names exactly this direction: evaluating VOTM on further
// applications.
#include <iostream>

#include "bench/harness.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "vacation/vacation.hpp"

int main(int argc, char** argv) {
  using namespace votm;
  using namespace votm::bench;
  const BenchOptions opts = parse_options(
      "Extension: Vacation workload, all configurations x both algorithms",
      argc, argv);
  print_preamble("Extension: Vacation", opts);

  auto cell = [&](stm::Algo algo, vacation::Layout layout, core::RacMode rac) {
    vacation::VacationConfig vc;
    vc.relations = 512;
    vc.customers = 256;
    vc.tasks_per_thread = opts.loops * 20;  // scale with the common flag
    vc.n_threads = opts.threads;
    vc.layout = layout;
    vc.algo = algo;
    vc.rac = rac;
    vc.adapt_interval = opts.adapt_interval;
    vc.backoff = opts.backoff;
    vc.seed = opts.seed;
    vc.yield_in_tx = opts.yield_in_tx;
    vacation::VacationWorld world(vc);
    const vacation::VacationReport r = world.run();
    std::string out = format_seconds(r.runtime_seconds) + "s";
    if (rac == core::RacMode::kAdaptive) {
      out += " Q=";
      for (std::size_t i = 0; i < r.views.size(); ++i) {
        out += (i ? "," : "") + std::to_string(r.views[i].final_quota);
      }
    }
    out += " " + human_count(r.total.aborts);
    if (!r.invariants_hold) out += " INVARIANT-FAIL";
    return out;
  };

  TextTable table("Vacation: runtime / final quotas / aborts");
  table.header({"Algorithm", "single-view", "multi-view", "multi-TM", "TM"});
  for (stm::Algo algo : {stm::Algo::kNOrec, stm::Algo::kOrecEagerRedo}) {
    std::vector<std::string> row = {to_string(algo)};
    row.push_back(
        cell(algo, vacation::Layout::kSingleView, core::RacMode::kAdaptive));
    std::cerr << "  [done] " << to_string(algo) << " single-view\n";
    row.push_back(
        cell(algo, vacation::Layout::kMultiView, core::RacMode::kAdaptive));
    std::cerr << "  [done] " << to_string(algo) << " multi-view\n";
    row.push_back(
        cell(algo, vacation::Layout::kMultiView, core::RacMode::kDisabled));
    std::cerr << "  [done] " << to_string(algo) << " multi-TM\n";
    row.push_back(
        cell(algo, vacation::Layout::kSingleView, core::RacMode::kDisabled));
    std::cerr << "  [done] " << to_string(algo) << " TM\n";
    table.row(row);
  }
  table.print();
  std::cout << "Shape note: Vacation's transactions are short and its\n"
               "conflicts rare (random rows in 512-row tables), so like the\n"
               "paper's Intruder it rewards full concurrency: adaptive RAC\n"
               "should keep every quota at N, and the multi-view split pays\n"
               "off through per-view metadata, not through admission control.\n";
  return 0;
}
