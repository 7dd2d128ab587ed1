#include "eigenbench/eigenbench.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/access.hpp"
#include "core/yield.hpp"
#include "rac/delta.hpp"
#include "util/barrier.hpp"
#include "util/cycles.hpp"
#include "util/rng.hpp"

namespace votm::eigen {

using core::vread;
using core::vwrite;
using stm::Word;

namespace {

// A compiler fence consuming a value: keeps reads from being dead-code
// eliminated without memory traffic.
inline void consume(Word value) { asm volatile("" ::"r"(value)); }

inline void run_nops(unsigned n) {
  for (unsigned i = 0; i < n; ++i) asm volatile("nop");
}

enum Action : std::uint8_t {
  kHotRead,
  kHotWrite,
  kMildRead,
  kMildWrite,
};

}  // namespace

// Arrays of one Eigenbench object, allocated from its owning view's arena.
struct EigenWorld::Object {
  ObjectParams params;
  std::size_t view_index = 0;
  Word* hot = nullptr;                // params.a1 words, fully shared
  Word* mild = nullptr;               // params.a2 words, per-thread slices
  std::vector<Word*> cold;            // per-thread private arrays (a3 words)
  std::size_t mild_slice = 0;         // words per thread in the mild array
};

EigenWorld::EigenWorld(WorldConfig config) : config_(std::move(config)) {
  if (config_.objects.empty()) {
    throw std::invalid_argument("EigenWorld needs at least one object");
  }
  if (config_.n_threads < 1) {
    throw std::invalid_argument("EigenWorld needs at least one thread");
  }
  build();
}

EigenWorld::~EigenWorld() = default;

void EigenWorld::build() {
  const std::size_t n_views =
      config_.layout == Layout::kSingleView ? 1 : config_.objects.size();
  if (config_.rac == core::RacMode::kFixed &&
      config_.fixed_quotas.size() != n_views) {
    throw std::invalid_argument("fixed_quotas must have one entry per view");
  }

  for (std::size_t v = 0; v < n_views; ++v) {
    core::ViewConfig vc;
    vc.algo = config_.algo;
    vc.max_threads = config_.n_threads;
    vc.rac = config_.rac;
    if (config_.rac == core::RacMode::kFixed) {
      vc.fixed_quota = config_.fixed_quotas[v];
    }
    vc.adapt_interval = config_.adapt_interval;
    vc.policy = config_.policy;
    vc.engine = config_.engine;
    vc.backoff = config_.backoff;
    // Size the arena for every object this view hosts (hot + mild + a cold
    // array per thread), with allocator headroom.
    std::size_t words = 0;
    for (std::size_t o = 0; o < config_.objects.size(); ++o) {
      if (config_.layout == Layout::kMultiView && o != v) continue;
      const ObjectParams& p = config_.objects[o];
      words += p.a1 + p.a2 + p.a3 * config_.n_threads;
    }
    vc.initial_bytes = words * sizeof(Word) + (words / 4 + 4096) * sizeof(Word);
    views_.push_back(std::make_unique<core::View>(vc));
  }

  for (std::size_t o = 0; o < config_.objects.size(); ++o) {
    auto object = std::make_unique<Object>();
    object->params = config_.objects[o];
    object->view_index = config_.layout == Layout::kSingleView ? 0 : o;
    core::View& v = *views_[object->view_index];
    object->hot = static_cast<Word*>(v.alloc(object->params.a1 * sizeof(Word)));
    object->mild = static_cast<Word*>(v.alloc(object->params.a2 * sizeof(Word)));
    object->cold.resize(config_.n_threads);
    for (unsigned t = 0; t < config_.n_threads; ++t) {
      object->cold[t] =
          static_cast<Word*>(v.alloc(object->params.a3 * sizeof(Word)));
    }
    object->mild_slice = std::max<std::size_t>(1, object->params.a2 / config_.n_threads);
    expected_total_ += object->params.loops * config_.n_threads;
    objects_.push_back(std::move(object));
  }
}

void EigenWorld::run_transaction_body(const Object& ob, unsigned tid,
                                      std::uint64_t iter_seed) {
  // Seed varies per retry attempt, exactly like the original Eigenbench
  // (rand_r() inside the transaction draws fresh indices after an abort).
  // This matters for progress: if retries replayed identical index sets,
  // two conflicting transactions would collide deterministically forever.
  const std::uint64_t attempt = core::thread_ctx().tx.consecutive_aborts;
  Xoshiro256 rng(iter_seed + attempt * 0x9e3779b97f4a7c15ULL);
  const ObjectParams& p = ob.params;

  // Build and shuffle the shared-access script (paper: "in *random order*").
  std::uint8_t actions[512];
  const unsigned total = p.r1 + p.w1 + p.r2 + p.w2;
  if (total > sizeof(actions)) throw std::invalid_argument("too many accesses");
  unsigned idx = 0;
  for (unsigned i = 0; i < p.r1; ++i) actions[idx++] = kHotRead;
  for (unsigned i = 0; i < p.w1; ++i) actions[idx++] = kHotWrite;
  for (unsigned i = 0; i < p.r2; ++i) actions[idx++] = kMildRead;
  for (unsigned i = 0; i < p.w2; ++i) actions[idx++] = kMildWrite;
  for (unsigned i = total; i > 1; --i) {
    std::swap(actions[i - 1], actions[rng.below(i)]);
  }

  Word* cold = ob.cold[tid];
  const std::size_t mild_base = tid * ob.mild_slice;
  Word acc = 0;
  unsigned accesses_since_yield = 0;

  for (unsigned a = 0; a < total; ++a) {
    if (config_.yield_every_n_accesses != 0 &&
        ++accesses_since_yield >= config_.yield_every_n_accesses) {
      accesses_since_yield = 0;
      core::yield_in_transaction();
    }
    switch (actions[a]) {
      case kHotRead:
        acc += vread(&ob.hot[rng.below(p.a1)]);
        break;
      case kHotWrite:
        vwrite(&ob.hot[rng.below(p.a1)], rng.next());
        break;
      case kMildRead:
        acc += vread(&ob.mild[mild_base + rng.below(ob.mild_slice)]);
        break;
      case kMildWrite:
        vwrite(&ob.mild[mild_base + rng.below(ob.mild_slice)], rng.next());
        break;
    }
    // Between two shared accesses: cold-array work and computation, all
    // inside the transaction (rolled back on abort).
    if (a + 1 < total) {
      for (unsigned i = 0; i < p.r3i; ++i) {
        acc += vread(&cold[rng.below(p.a3)]);
      }
      for (unsigned i = 0; i < p.w3i; ++i) {
        vwrite(&cold[rng.below(p.a3)], acc + i);
      }
      run_nops(p.nopi);
    }
  }
  consume(acc);
}

void EigenWorld::outside_activities(const Object& ob, unsigned tid,
                                    std::uint64_t iter_seed) {
  const ObjectParams& p = ob.params;
  if (p.r3o == 0 && p.w3o == 0 && p.nopo == 0) return;
  Xoshiro256 rng(iter_seed ^ 0x5eedULL);
  Word* cold = ob.cold[tid];
  Word acc = 0;
  for (unsigned i = 0; i < p.r3o; ++i) acc += vread(&cold[rng.below(p.a3)]);
  for (unsigned i = 0; i < p.w3o; ++i) vwrite(&cold[rng.below(p.a3)], acc + i);
  run_nops(p.nopo);
  consume(acc);
}

void EigenWorld::worker(unsigned tid) {
  // Per-thread schedule: loops_o transactions per object, interleaved
  // uniformly at random ("Each iteration accesses one of the two views
  // randomly", paper Fig. 3).
  SplitMix64 seeder(config_.seed * 0x9e3779b9ULL + tid);
  Xoshiro256 rng(seeder.next());

  std::vector<std::uint8_t> schedule;
  for (std::size_t o = 0; o < objects_.size(); ++o) {
    schedule.insert(schedule.end(), objects_[o]->params.loops,
                    static_cast<std::uint8_t>(o));
  }
  for (std::size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng.below(i)]);
  }

  for (std::size_t iter = 0; iter < schedule.size(); ++iter) {
    if (stop_.stop_requested()) break;
    const Object& ob = *objects_[schedule[iter]];
    const std::uint64_t iter_seed = seeder.next();
    try {
      views_[ob.view_index]->execute(
          [&] {
            stop_.throw_if_stopped();
            run_transaction_body(ob, tid, iter_seed);
          });
    } catch (const StopRequested&) {
      break;
    }
    outside_activities(ob, tid, iter_seed);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

RunReport EigenWorld::run() {
  stop_.reset();
  completed_.store(0, std::memory_order_relaxed);

  WallTimer timer;
  // Workers start together: each yields until all have arrived. Without
  // the rendezvous the first threads can finish a short schedule before
  // the last ones exist, and the run then sees no overlap (and no
  // contention) at all. A blocking barrier re-staggers the start: its
  // sleepers wake one at a time.
  std::atomic<unsigned> arrived{0};
  std::vector<std::thread> threads;
  threads.reserve(config_.n_threads);
  for (unsigned t = 0; t < config_.n_threads; ++t) {
    threads.emplace_back([this, t, &arrived] {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < config_.n_threads) {
        std::this_thread::yield();
      }
      worker(t);
    });
  }

  if (config_.time_cap_seconds > 0.0) {
    while (completed_.load(std::memory_order_relaxed) < expected_total_ &&
           timer.seconds() < config_.time_cap_seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop_.request_stop();
  }
  for (auto& th : threads) th.join();

  RunReport report;
  report.runtime_seconds = timer.seconds();
  const std::uint64_t done = completed_.load(std::memory_order_relaxed);
  report.completed_fraction =
      expected_total_ == 0
          ? 1.0
          : static_cast<double>(done) / static_cast<double>(expected_total_);
  report.livelocked = stop_.stop_requested() && report.completed_fraction < 0.999;
  for (const auto& v : views_) {
    ViewReport vr;
    vr.stats = v->stats();
    vr.final_quota = v->quota();
    vr.delta = rac::delta_q(vr.stats, vr.final_quota);
    report.total += vr.stats;
    report.views.push_back(vr);
  }
  return report;
}

}  // namespace votm::eigen
