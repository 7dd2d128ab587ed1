// Vacation example: a travel-reservation service whose four tables (cars,
// flights, rooms, customers) each live in their own view — the same
// "objects never accessed together go into different views" rule the paper
// applies to Intruder, scaled up to four views.
//
//   ./vacation [--tasks N] [--threads N] [--single-view] [--algo norec]
#include <cstdio>

#include "util/cli.hpp"
#include "util/format.hpp"
#include "vacation/vacation.hpp"

int main(int argc, char** argv) {
  using namespace votm;

  CliFlags flags("Vacation reservation-system example on VOTM");
  flags.flag("tasks", "3000", "tasks per thread")
      .flag("threads", "4", "worker threads")
      .flag("relations", "512", "rows per resource table")
      .flag("customers", "256", "customer count")
      .flag("single-view", "0", "put all four tables into ONE view")
      .flag("algo", "norec", "STM algorithm: norec | oer | tml | cgl")
      .flag("seed", "1", "workload seed");
  flags.parse(argc, argv);

  vacation::VacationConfig config;
  config.tasks_per_thread = static_cast<std::uint64_t>(flags.i64("tasks"));
  config.n_threads = static_cast<unsigned>(flags.i64("threads"));
  config.relations = static_cast<std::size_t>(flags.i64("relations"));
  config.customers = static_cast<std::size_t>(flags.i64("customers"));
  config.layout = flags.boolean("single-view") ? vacation::Layout::kSingleView
                                               : vacation::Layout::kMultiView;
  config.algo = stm::algo_from_string(flags.str("algo"));
  config.seed = static_cast<std::uint64_t>(flags.i64("seed"));

  vacation::VacationWorld world(config);
  std::printf("running %llu tasks on %u threads (%s, %s)...\n",
              static_cast<unsigned long long>(config.tasks_per_thread *
                                              config.n_threads),
              config.n_threads, to_string(config.algo),
              config.layout == vacation::Layout::kMultiView ? "multi-view"
                                                            : "single-view");

  const vacation::VacationReport report = world.run();

  std::printf("\nruntime              : %.3fs\n", report.runtime_seconds);
  std::printf("reservations made    : %llu (denied: %llu)\n",
              static_cast<unsigned long long>(report.reservations_made),
              static_cast<unsigned long long>(report.reservations_denied));
  std::printf("customers churned    : %llu\n",
              static_cast<unsigned long long>(report.customers_deleted));
  static const char* kNames[] = {"cars", "flights", "rooms", "customers"};
  for (std::size_t v = 0; v < report.views.size(); ++v) {
    const auto& vr = report.views[v];
    const char* name = report.views.size() == 1 ? "all tables" : kNames[v];
    std::printf("view %zu (%-10s)  : commits=%s aborts=%s Q=%u\n", v, name,
                human_count(vr.stats.commits).c_str(),
                human_count(vr.stats.aborts).c_str(), vr.final_quota);
  }
  std::printf("\nconservation invariant (per-kind: units out == units "
              "recorded): %s\n",
              report.invariants_hold ? "HOLDS" : "VIOLATED");
  return report.invariants_hold ? 0 : 1;
}
