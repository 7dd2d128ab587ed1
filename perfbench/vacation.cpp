#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"
#include "vacation/vacation.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using votm::vacation::Kind;
using votm::vacation::Word;

// Sizes as bench/ext_vacation runs them (STAMP -n 512 rows per table,
// 256 customers, -q 4 queries, -u 80% reservations); the N task streams of
// one round take about 0.3 s on one worker at N = 4.
constexpr std::size_t kRelations = 512;
constexpr std::size_t kCustomers = 256;
constexpr unsigned kQueries = 4;
constexpr unsigned kUserPercent = 80;
constexpr std::uint64_t kTasks = 50000;
constexpr std::uint64_t kSmokeTasks = 200;

// Task tags: the per-task-type metrics of the traced run.
enum Tag : std::uint8_t { kReserve = 1, kDelete = 2, kUpdate = 3 };

constexpr std::size_t kResourceViews = 3;

// Tasks of one client stream between two of the next.
constexpr std::uint64_t kChunk = 16;

std::uint64_t tasks_per_thread(const RoundConfig& config) {
  return config.smoke ? kSmokeTasks : kTasks;
}

}  // namespace

struct VacationRound::Task {
  Tag type;
  Kind kind;
  bool grow;
  Word customer;
  Word id;
  Word count;
  Word price;
  Word candidates[kQueries];
};

VacationRound::VacationRound(const RoundConfig& config) : config_(config) {
  const unsigned n = config_.threads;
  if (kCustomers < n) throw std::invalid_argument("more threads than customers");
  const std::uint64_t per_thread = tasks_per_thread(config_);

  // Views and tables as VacationWorld builds them for kMultiView.
  const std::size_t resource_words = kRelations * 8 + 1024;
  const std::size_t customer_words = kCustomers * 8 + per_thread * n * 3 + 4096;
  auto make_view = [&](std::size_t words) {
    votm::core::ViewConfig vc;
    vc.algo = votm::stm::Algo::kNOrec;
    vc.max_threads = n;
    vc.rac = votm::core::RacMode::kAdaptive;
    vc.backoff = votm::BackoffPolicy::kNone;
    vc.trace_adaptation = config_.traced;
    vc.initial_bytes = words * sizeof(Word) * 2 + (1u << 15);
    views_.push_back(std::make_unique<votm::core::View>(vc));
  };
  for (std::size_t v = 0; v < kResourceViews; ++v) make_view(resource_words);
  make_view(customer_words);
  cars_ = std::make_unique<votm::vacation::ResourceTable>(*views_[0], kRelations);
  flights_ = std::make_unique<votm::vacation::ResourceTable>(*views_[1], kRelations);
  rooms_ = std::make_unique<votm::vacation::ResourceTable>(*views_[2], kRelations);
  customers_ =
      std::make_unique<votm::vacation::CustomerTable>(*views_[3], kCustomers);

  // Prefill, drawing from the seed in VacationWorld's order.
  votm::Xoshiro256 db_rng(config_.seed * 7919 + 3);
  for (Kind kind : {Kind::kCar, Kind::kFlight, Kind::kRoom}) {
    votm::vacation::ResourceTable& table = table_of(kind);
    view_of(kind).execute([&] {
      for (Word id = 1; id <= kRelations; ++id) {
        table.add(id, 1 + db_rng.below(5), 50 + db_rng.below(450));
      }
    });
  }
  views_[3]->execute([&] {
    for (Word c = 1; c <= kCustomers; ++c) customers_->add_customer(c);
  });

  // The task mix, drawn as VacationWorld::worker draws it: one stream per
  // client thread, each over its own partition of the customers, then
  // interleaved chunk by chunk into the run order.
  std::vector<std::vector<Task>> streams(n);
  const Word span = kCustomers / n;
  for (unsigned tid = 0; tid < n; ++tid) {
    votm::Xoshiro256 rng(config_.seed * 1000003 + tid);
    const Word base = 1 + tid * span;
    streams[tid].resize(per_thread);
    for (Task& t : streams[tid]) {
      t = Task{};
      t.customer = base + rng.below(span);
      const auto roll = rng.below(100);
      if (roll < kUserPercent) {
        t.type = kReserve;
        t.kind = static_cast<Kind>(1 + rng.below(3));
        for (Word& c : t.candidates) c = 1 + rng.below(kRelations);
      } else if (roll < kUserPercent + (100 - kUserPercent) / 2) {
        t.type = kDelete;
      } else {
        t.type = kUpdate;
        t.kind = static_cast<Kind>(1 + rng.below(3));
        t.id = 1 + rng.below(kRelations);
        t.grow = rng.chance(1, 2);
        t.count = 1 + rng.below(3);
        t.price = 50 + rng.below(450);
      }
    }
  }
  tasks_.reserve(per_thread * n);
  for (std::uint64_t first = 0; first < per_thread; first += kChunk) {
    const std::uint64_t last = std::min(first + kChunk, per_thread);
    for (const auto& stream : streams) {
      tasks_.insert(tasks_.end(), stream.begin() + first, stream.begin() + last);
    }
  }
}

VacationRound::~VacationRound() = default;

votm::core::View& VacationRound::view_of(Kind kind) {
  return *views_[static_cast<std::size_t>(kind) - 1];
}

votm::vacation::ResourceTable& VacationRound::table_of(Kind kind) {
  switch (kind) {
    case Kind::kCar:
      return *cars_;
    case Kind::kFlight:
      return *flights_;
    case Kind::kRoom:
      return *rooms_;
  }
  return *cars_;
}

// Runs one task as VacationWorld::worker runs it: single-view transactions
// only.
template <class Log>
void VacationRound::run_task(const Task& t, Log& log, std::vector<Word>& drained) {
  constexpr std::uint8_t kCustomerView = kResourceViews;
  log.count_task(t.type);
  if (t.type == kReserve) {
    // Query the candidates, reserve the cheapest available one; then
    // record the reservation in the customer view.
    votm::vacation::ResourceTable& table = table_of(t.kind);
    const auto v = static_cast<std::uint8_t>(static_cast<Word>(t.kind) - 1);
    Word chosen = 0;
    bool reserved = false;
    atomic_block(view_of(t.kind), log, v, kReserve, [&] {
      chosen = 0;
      reserved = false;
      Word best_price = ~Word{0};
      for (const Word id : t.candidates) {
        Word free = 0, price = 0;
        const bool found = traced(log, SpanName::kResQuery, [&] {
          return table.query(id, nullptr, &free, &price);
        });
        if (found && free > 0 && price < best_price) {
          best_price = price;
          chosen = id;
        }
      }
      if (chosen != 0) {
        reserved = traced(log, SpanName::kResReserve,
                          [&] { return table.reserve(chosen, nullptr); });
      }
    });
    if (reserved) {
      atomic_block(*views_[kCustomerView], log, kCustomerView, kReserve, [&] {
        traced(log, SpanName::kCustAddReservation, [&] {
          customers_->add_reservation(t.customer, t.kind, chosen);
        });
      });
    }
  } else if (t.type == kDelete) {
    // Drop the customer (and re-register them), then release each unit
    // they held in its resource view.
    atomic_block(*views_[kCustomerView], log, kCustomerView, kDelete, [&] {
      drained.clear();
      traced(log, SpanName::kCustRemove,
             [&] { customers_->remove_customer(t.customer, &drained); });
      traced(log, SpanName::kCustAdd,
             [&] { customers_->add_customer(t.customer); });
    });
    for (const Word packed : drained) {
      const Kind kind = votm::vacation::reservation_kind(packed);
      const auto v = static_cast<std::uint8_t>(static_cast<Word>(kind) - 1);
      atomic_block(view_of(kind), log, v, kDelete, [&] {
        traced(log, SpanName::kResRelease, [&] {
          table_of(kind).release(votm::vacation::reservation_id(packed));
        });
      });
    }
  } else {
    // Add or retire capacity of one row.
    votm::vacation::ResourceTable& table = table_of(t.kind);
    const auto v = static_cast<std::uint8_t>(static_cast<Word>(t.kind) - 1);
    atomic_block(view_of(t.kind), log, v, kUpdate, [&] {
      if (t.grow) {
        traced(log, SpanName::kResAdd, [&] { table.add(t.id, t.count, t.price); });
      } else {
        traced(log, SpanName::kResRetire, [&] { table.retire(t.id, t.count); });
      }
    });
  }
}

template <class Log>
void VacationRound::work(unsigned, Log& log) {
  std::vector<Word> drained;
  for (const Task& t : tasks_) run_task(t, log, drained);
}

template void VacationRound::work<SpanLog>(unsigned, SpanLog&);
template void VacationRound::work<NoSpans>(unsigned, NoSpans&);

std::uint64_t VacationRound::ops() const {
  return tasks_per_thread(config_) * config_.threads;
}

// Gate: conservation per resource kind, as VacationWorld checks it. Units
// out of the free pool (total - free, summed over rows) equal the
// reservations the customers hold.
std::uint64_t VacationRound::failed() {
  for (Kind kind : {Kind::kCar, Kind::kFlight, Kind::kRoom}) {
    Word resource_side = 0, customer_side = 0;
    view_of(kind).execute_read(
        [&] { resource_side = table_of(kind).outstanding(); });
    views_[3]->execute_read(
        [&] { customer_side = customers_->outstanding_of(kind); });
    if (resource_side != customer_side) return ops();
  }
  return 0;
}

std::vector<votm::core::View*> VacationRound::views() {
  std::vector<votm::core::View*> out;
  for (auto& v : views_) out.push_back(v.get());
  return out;
}

TraceSpec VacationRound::trace_spec() const {
  TraceSpec spec;
  spec.views = views_.size();
  spec.task_metrics = {{kReserve, "vacation.reserve_ns"},
                       {kDelete, "vacation.customer_ns"},
                       {kUpdate, "vacation.update_ns"}};
  return spec;
}

std::uint64_t VacationRound::world_commits(const RoundConfig& config) {
  votm::vacation::VacationConfig vc;
  vc.relations = kRelations;
  vc.customers = kCustomers;
  vc.tasks_per_thread = tasks_per_thread(config);
  vc.queries_per_task = kQueries;
  vc.user_percent = kUserPercent;
  vc.layout = votm::vacation::Layout::kMultiView;
  vc.n_threads = config.threads;
  vc.algo = votm::stm::Algo::kNOrec;
  vc.rac = votm::core::RacMode::kAdaptive;
  vc.backoff = votm::BackoffPolicy::kNone;
  vc.seed = config.seed;
  votm::vacation::VacationWorld world(vc);
  return world.run().total.commits;
}

}  // namespace perfbench
