// Cross-cutting property tests: parameterized sweeps over
// (algorithm x thread count x quota) for the core invariants, randomized
// model properties, reference-model fuzzing for the write set, and
// failure-injection sweeps.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/access.hpp"
#include "core/view.hpp"
#include "engine_rows.hpp"
#include "model/makespan.hpp"
#include "model/simulator.hpp"
#include "stm/factory.hpp"
#include "util/rng.hpp"

namespace votm {
namespace {

// ---------------- (algo x threads x quota) invariant sweep -----------------

using SweepParam = std::tuple<stm::Algo, unsigned /*threads*/, unsigned /*quota*/>;

class ViewSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ViewSweep, CounterExactUnderEveryConfiguration) {
  const auto [algo, threads, quota] = GetParam();
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = threads;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = quota;
  vc.initial_bytes = 1 << 16;
  core::View view(vc);
  auto* cell = static_cast<stm::Word*>(view.alloc(sizeof(stm::Word)));
  view.execute([&] { core::vwrite<stm::Word>(cell, 0); });

  constexpr int kPerThread = 400;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        view.execute([&] { core::vadd<stm::Word>(cell, 1); });
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(core::vread(cell), threads * static_cast<stm::Word>(kPerThread));
  EXPECT_EQ(view.quota(), std::min(quota, threads));
  if (quota == 1) {
    EXPECT_EQ(view.stats().aborts, 0u);  // lock mode
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ViewSweep,
    ::testing::Combine(::testing::Values(stm::Algo::kNOrec,
                                         stm::Algo::kOrecEagerRedo,
                                         stm::Algo::kTml),
                       ::testing::Values(2u, 5u, 8u),
                       ::testing::Values(1u, 2u, 8u)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_q" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------- WriteSet fuzz against a reference map --------------------

TEST(WriteSetFuzz, MatchesUnorderedMapReference) {
  stm::WriteSet ws;
  std::unordered_map<stm::Word*, stm::Word> reference;
  std::vector<stm::Word> cells(512);
  Xoshiro256 rng(2024);

  for (int round = 0; round < 20; ++round) {
    ws.clear();
    reference.clear();
    const int ops = 1 + static_cast<int>(rng.below(800));
    for (int i = 0; i < ops; ++i) {
      stm::Word* addr = &cells[rng.below(cells.size())];
      if (rng.chance(2, 3)) {
        const stm::Word value = rng.next();
        ws.insert(addr, value);
        reference[addr] = value;
      } else {
        const stm::Word* got = ws.lookup(addr);
        auto it = reference.find(addr);
        if (it == reference.end()) {
          EXPECT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, it->second);
        }
      }
    }
    EXPECT_EQ(ws.size(), reference.size());
    // Write-back order respects first-insertion order and final values.
    std::map<stm::Word*, stm::Word> from_entries;
    for (const auto& e : ws.entries()) from_entries[e.addr] = e.value;
    for (const auto& [addr, value] : reference) {
      EXPECT_EQ(from_entries.at(addr), value);
    }
  }
}

// ---------------- failure injection across engines --------------------------

using test_rows::EngineRow;

class FailureInjection : public ::testing::TestWithParam<EngineRow> {};

TEST_P(FailureInjection, RandomExceptionsNeverCorruptState) {
  core::ViewConfig vc;
  vc.algo = test_rows::algo_of(GetParam());
  test_rows::apply_row(GetParam(), vc.engine);
  vc.max_threads = 4;
  vc.initial_bytes = 1 << 18;
  core::View view(vc);
  auto* cells = static_cast<stm::Word*>(view.alloc(16 * sizeof(stm::Word)));
  view.execute([&] {
    for (int i = 0; i < 16; ++i) core::vwrite<stm::Word>(&cells[i], 0);
  });

  struct Injected {};
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> pool;
  std::atomic<std::uint64_t> successes{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 31);
      for (int i = 0; i < 600; ++i) {
        const bool inject = rng.chance(1, 4);
        try {
          view.execute([&] {
            // Keep the pair (2k, 2k+1) equal: both incremented or neither.
            const auto k = static_cast<std::size_t>(rng.below(8));
            core::vadd<stm::Word>(&cells[2 * k], 1);
            if (inject) throw Injected{};
            core::vadd<stm::Word>(&cells[2 * k + 1], 1);
          });
          successes.fetch_add(1);
        } catch (const Injected&) {
          // expected
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  // Pairs must match: an injected exception rolled back the first half.
  view.execute_read([&] {
    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(core::vread(&cells[2 * k]), core::vread(&cells[2 * k + 1]))
          << "pair " << k;
    }
  });
  EXPECT_GT(successes.load(), 0u);
}

// TML and CGL write in place and cannot undo on user exceptions; the
// injection property only holds for the buffering engines. The third row
// rolls back under the GV5 clock and wait-timeout CM (tests/engine_rows.hpp).
INSTANTIATE_TEST_SUITE_P(BufferingEngines, FailureInjection,
                         ::testing::Values(EngineRow::kNOrec,
                                           EngineRow::kOrecEagerRedo,
                                           EngineRow::kOerGv5WaitTimeout),
                         [](const auto& info) {
                           return test_rows::row_name(info.param);
                         });

// ---------------- randomized model properties -------------------------------

model::Workload random_workload(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  model::Workload w;
  w.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.push_back(model::Transaction{0.5 + rng.uniform01() * 5.0,
                                   rng.uniform01() * 30.0,
                                   0.2 + rng.uniform01() * 3.0});
  }
  return w;
}

TEST(ModelProperties, MakespanMonotoneBetweenExtremes) {
  // For any workload, makespan_rac is bounded by the Q=1 and delta-governed
  // extremes: min over Q is attained at Q=1 (high contention) or Q=N (low).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const model::Workload w = random_workload(seed, 60);
    const unsigned n = 16;
    double best = 1e300;
    unsigned best_q = 0;
    for (unsigned q = 1; q <= n; ++q) {
      const double m = model::makespan_rac(w, n, q);
      if (m < best) {
        best = m;
        best_q = q;
      }
    }
    // Eq. 2 is monotone in Q on either side of the optimum, so the optimum
    // must be at an extreme (the expression is t/Q + const*(Q-1)/Q: it is
    // monotone in Q — increasing when delta > 1, decreasing when < 1).
    EXPECT_TRUE(best_q == 1 || best_q == n)
        << "seed " << seed << " best_q " << best_q;
    const double delta = model::contention_delta(w, n);
    EXPECT_EQ(best_q == 1, delta > 1.0) << "seed " << seed;
  }
}

TEST(ModelProperties, MultiViewNeverWorseAcrossRandomPartitions) {
  // Observation 2 generalised: for any random split of a workload into two
  // disjoint subsets, per-view optimal quotas are never worse than the best
  // single-view quota.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Xoshiro256 rng(seed * 77);
    const model::Workload all = random_workload(seed, 80);
    model::Workload a, b;
    for (const auto& tx : all) {
      (rng.chance(1, 2) ? a : b).push_back(tx);
    }
    if (a.empty() || b.empty()) continue;
    const unsigned n = 16;
    const double multi = model::makespan_multi_view(
        {{a, model::optimal_quota(a, n)}, {b, model::optimal_quota(b, n)}}, n);
    double best_single = 1e300;
    for (unsigned q = 1; q <= n; ++q) {
      best_single = std::min(best_single, model::makespan_rac(all, n, q));
    }
    EXPECT_LE(multi, best_single + 1e-9) << "seed " << seed;
  }
}

TEST(ModelProperties, SimulatedDeltaTracksObservationOneDirection) {
  // If the simulator's measured delta(Q) > 1, lowering Q must reduce the
  // simulated makespan (Observation 1 in simulated execution).
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const model::Workload w = random_workload(seed, 4000);
    for (unsigned q : {4u, 8u, 16u}) {
      model::SimConfig cfg;
      cfg.quota = q;
      cfg.seed = seed;
      const model::SimResult at_q = model::simulate_rac(w, cfg);
      const double delta = model::simulated_delta(at_q, q);
      model::SimConfig lower = cfg;
      lower.quota = q / 2;
      const model::SimResult at_half = model::simulate_rac(w, lower);
      if (delta > 1.1) {  // margin: stochastic
        EXPECT_LT(at_half.makespan, at_q.makespan)
            << "seed " << seed << " q " << q;
      } else if (delta < 0.9 && q < 16) {
        model::SimConfig higher = cfg;
        higher.quota = q * 2;
        EXPECT_LT(model::simulate_rac(w, higher).makespan, at_q.makespan)
            << "seed " << seed << " q " << q;
      }
    }
  }
}

// ---------------- arena & view interaction property ------------------------

TEST(ViewMemoryProperty, AbortStormNeverLeaksArenaMemory) {
  core::ViewConfig vc;
  vc.algo = stm::Algo::kNOrec;
  vc.max_threads = 4;
  vc.initial_bytes = 1 << 20;
  core::View view(vc);
  const std::size_t baseline = view.arena().allocated();

  struct Injected {};
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(t + 5);
      for (int i = 0; i < 300; ++i) {
        try {
          view.execute([&] {
            void* a = view.alloc(8 + rng.below(128));
            void* b = view.alloc(8 + rng.below(128));
            view.free(a);
            if (rng.chance(1, 2)) throw Injected{};
            view.free(b);
          });
        } catch (const Injected&) {
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  // Every path (commit with deferred frees, exception rollback) returns all
  // blocks: after a forced reclaim drains the limbo list (all threads have
  // joined, so no era pin can hold anything back), the allocation level
  // must be back to the baseline.
  view.reclaim_garbage();
  EXPECT_EQ(view.arena().allocated(), baseline);
  EXPECT_EQ(view.limbo_depth(), 0u);
}

}  // namespace
}  // namespace votm
