// MVCC-lite versioned read path (stm/mvcc.hpp, DESIGN.md §16): ring unit
// semantics, quiescence-horizon retirement, deterministic slipped-commit
// interleavings per engine, View::run_read snapshot walks under real
// concurrent writers, and votm-check exploration + ring-lap fault
// campaigns (harness builds only).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/access.hpp"
#include "core/thread_ctx.hpp"
#include "core/view.hpp"
#include "stm/factory.hpp"
#include "stm/mvcc.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "util/thread_ordinal.hpp"

namespace votm {
namespace {

using stm::ClockPolicy;
using stm::CommitLogRing;
using stm::OrecVersionRings;
using stm::Word;

constexpr ClockPolicy kPolicies[] = {
    ClockPolicy::kGv1,
    ClockPolicy::kGv5,
};

// Commit epilogue for manually driven transactions (mirrors the tail of
// stm::atomically; the interleaving tests below drive begin/read/commit
// directly so a writer can slip between two reads of the same snapshot).
void finish(stm::TxThread& tx) {
  tx.in_tx = false;
  tx.engine = nullptr;
  tx.consecutive_aborts = 0;
}

// --- OrecVersionRings unit semantics ---------------------------------------

TEST(OrecVersionRingsUnit, LookupHonoursTheEntryWindow) {
  OrecVersionRings rings(8, 4);
  Word cell = 0;
  // "cell held 7 for every snapshot in [3, 9)".
  rings.push(2, &cell, 7, /*from=*/3, /*until=*/9);

  Word out = 0;
  EXPECT_TRUE(rings.lookup(2, &cell, /*snapshot=*/3, &out));
  EXPECT_EQ(out, 7u);
  EXPECT_TRUE(rings.lookup(2, &cell, 8, &out));
  EXPECT_FALSE(rings.lookup(2, &cell, 2, &out));   // before the window
  EXPECT_FALSE(rings.lookup(2, &cell, 9, &out));   // until is exclusive
  EXPECT_FALSE(rings.lookup(3, &cell, 5, &out));   // wrong stripe
  Word other = 0;
  EXPECT_FALSE(rings.lookup(2, &other, 5, &out));  // wrong address
}

TEST(OrecVersionRingsUnit, AdjacentWindowsServeTheRightVersion) {
  OrecVersionRings rings(4, 4);
  Word cell = 0;
  rings.push(1, &cell, 10, 0, 5);   // value 10 for snapshots [0, 5)
  rings.push(1, &cell, 20, 5, 9);   // value 20 for snapshots [5, 9)
  Word out = 0;
  ASSERT_TRUE(rings.lookup(1, &cell, 4, &out));
  EXPECT_EQ(out, 10u);
  ASSERT_TRUE(rings.lookup(1, &cell, 5, &out));
  EXPECT_EQ(out, 20u);
}

TEST(OrecVersionRingsUnit, RoundRobinReuseEvictsTheOldestWindow) {
  OrecVersionRings rings(2, 2);
  Word cell = 0;
  rings.push(0, &cell, 1, 0, 2);
  rings.push(0, &cell, 2, 2, 4);
  rings.push(0, &cell, 3, 4, 6);  // depth 2: evicts the [0, 2) entry
  Word out = 0;
  EXPECT_FALSE(rings.lookup(0, &cell, 1, &out));  // evicted — reader would
                                                  // conflict, the pre-MVCC
                                                  // outcome
  ASSERT_TRUE(rings.lookup(0, &cell, 3, &out));
  EXPECT_EQ(out, 2u);
  ASSERT_TRUE(rings.lookup(0, &cell, 5, &out));
  EXPECT_EQ(out, 3u);
}

TEST(OrecVersionRingsUnit, RetireBelowDropsClosedWindowsOnly) {
  OrecVersionRings rings(4, 4);
  Word a = 0;
  Word b = 0;
  rings.push(0, &a, 1, 0, 4);
  rings.push(1, &b, 2, 0, 6);
  rings.push(1, &b, 3, 6, 10);
  EXPECT_EQ(rings.live_entries(), 3u);

  EXPECT_EQ(rings.retire_below(6), 2u);  // until <= 6: the first two
  EXPECT_EQ(rings.live_entries(), 1u);
  Word out = 0;
  EXPECT_FALSE(rings.lookup(0, &a, 2, &out));
  EXPECT_FALSE(rings.lookup(1, &b, 3, &out));
  ASSERT_TRUE(rings.lookup(1, &b, 7, &out));  // window open past the horizon
  EXPECT_EQ(out, 3u);
  EXPECT_EQ(rings.retire_below(6), 0u);  // idempotent
}

TEST(OrecVersionRingsUnit, HorizonPreferredReuseSparesRecentWindows) {
  OrecVersionRings rings(1, 4);
  Word cell = 0;
  rings.push(0, &cell, 1, 0, 2);    // slot 0 — closes below the horizon
  rings.push(0, &cell, 2, 2, 10);   // slots 1..3 — recent
  rings.push(0, &cell, 3, 10, 11);
  rings.push(0, &cell, 4, 11, 12);
  rings.set_horizon(4);
  EXPECT_EQ(rings.horizon(), 4u);

  // Head would be slot 0 anyway after four pushes, so push once more to
  // move it off, then verify the preferred-reuse pick still lands on the
  // quiesced slot instead of the head's round-robin victim.
  rings.push(0, &cell, 5, 12, 13);  // recycles slot 0 (stamp 2 <= horizon)
  Word out = 0;
  EXPECT_FALSE(rings.lookup(0, &cell, 1, &out));  // the quiesced entry died
  ASSERT_TRUE(rings.lookup(0, &cell, 5, &out));   // recent windows survived
  EXPECT_EQ(out, 2u);
  ASSERT_TRUE(rings.lookup(0, &cell, 10, &out));
  EXPECT_EQ(out, 3u);
  ASSERT_TRUE(rings.lookup(0, &cell, 12, &out));
  EXPECT_EQ(out, 5u);
}

// --- CommitLogRing unit semantics ------------------------------------------

TEST(CommitLogRingUnit, ReconstructRewindsNewestFirst) {
  CommitLogRing ring;
  Word a = 0;
  Word b = 0;
  // Commit at seq 4 overwrote a (old 1) and b (old 10); commit at seq 6
  // overwrote a again (old 2).
  auto p1 = ring.begin_publish(4);
  ring.record(p1, &a, 1);
  ring.record(p1, &b, 10);
  ring.finish_publish(p1, 4);
  auto p2 = ring.begin_publish(6);
  ring.record(p2, &a, 2);
  ring.finish_publish(p2, 6);

  Word v = 3;  // a's current value at seq 6
  ASSERT_TRUE(ring.reconstruct(&a, /*snapshot=*/2, /*now=*/6, &v));
  EXPECT_EQ(v, 1u);  // rewound through both commits
  v = 3;
  ASSERT_TRUE(ring.reconstruct(&a, 4, 6, &v));
  EXPECT_EQ(v, 2u);  // only the seq-6 commit is newer than snapshot 4
  v = 20;  // b's current value
  ASSERT_TRUE(ring.reconstruct(&b, 2, 6, &v));
  EXPECT_EQ(v, 10u);
  Word untouched = 99;
  ASSERT_TRUE(ring.reconstruct(&untouched, 2, 6, &untouched));
  EXPECT_EQ(untouched, 99u);  // no commit logged it: value stands
}

TEST(CommitLogRingUnit, OverflowLapAndStaleStampFailClosed) {
  CommitLogRing ring;
  Word cells[CommitLogRing::kPairs + 1] = {};
  auto p = ring.begin_publish(2);
  for (auto& c : cells) ring.record(p, &c, 1);  // one past capacity
  ring.finish_publish(p, 2);
  Word v = 0;
  EXPECT_FALSE(ring.reconstruct(&cells[0], 0, 2, &v));  // overflowed slot

  // A gap the ring cannot possibly cover (guaranteed lap).
  EXPECT_FALSE(ring.reconstruct(
      &v, 0, (CommitLogRing::kSlots + 1) * 2, &v));

  // A sequence bump that published nothing (serial-mode commit): the slot
  // stamp cannot match, so the walk fails closed.
  Word w = 0;
  auto q = ring.begin_publish(4);
  ring.record(q, &w, 5);
  ring.finish_publish(q, 4);
  EXPECT_FALSE(ring.reconstruct(&w, 2, 6, &v));  // seq 6 never published
  ASSERT_TRUE(ring.reconstruct(&w, 2, 4, &v));   // seq 4 did
  EXPECT_EQ(v, 5u);
}

// --- quiescence-horizon retirement wiring (ROADMAP PR 5 -> PR 6) -----------

TEST(QuiescenceRetirement, CommitPathRefreshesTheHorizonFromTheSlots) {
  stm::OrecEagerRedoEngine engine(stm::OrecTable::kDefaultSize,
                                  ClockPolicy::kGv1, /*mvcc=*/true);
  ASSERT_TRUE(engine.mvcc());
  auto* rings = engine.version_rings();
  ASSERT_NE(rings, nullptr);
  EXPECT_EQ(rings->horizon(), 0u);  // first refresh sees no published slot

  Word cell = 0;
  stm::TxThread tx;
  constexpr unsigned kCommits = 2 * OrecVersionRings::kHorizonRefreshPushes + 8;
  for (unsigned i = 0; i < kCommits; ++i) {
    stm::atomically(engine, tx, [&](stm::TxThread& t) {
      engine.write(t, &cell, engine.read(t, &cell) + 1);
    });
  }
  // The periodic refresh must have pulled the horizon up from the
  // quiescence slots, and can never run ahead of them.
  const std::uint64_t h = rings->horizon();
  EXPECT_GT(h, 0u);
  EXPECT_LE(h, engine.version_clock().quiescence_horizon());
  EXPECT_EQ(engine.version_clock().last_commit(thread_ordinal()),
            std::uint64_t{kCommits});

  // Explicit reclamation below the horizon: closed windows die, the open
  // one (the newest value, until == latest commit) survives.
  ASSERT_GT(rings->live_entries(), 0u);
  rings->retire_below(h);
  Word out = 0;
  const std::size_t stripe = engine.orec_table().index_for(&cell);
  EXPECT_FALSE(rings->lookup(stripe, &cell, h - 1, &out));
  ASSERT_TRUE(rings->lookup(stripe, &cell, kCommits - 1, &out));
  EXPECT_EQ(out, Word{kCommits} - 1);
}

// --- deterministic slipped-commit interleavings ----------------------------

// A read-only transaction reads one word, a writer commits over BOTH words,
// and the reader's second read must come back from the ring: same snapshot,
// no abort. Driven manually on one OS thread so the interleaving is exact.
void run_slipped_commit(stm::Algo algo, ClockPolicy policy) {
  SCOPED_TRACE(std::string(stm::to_string(algo)) + "/" +
               stm::to_string(policy));
  stm::EngineConfig cfg;
  cfg.clock_policy = policy;
  cfg.mvcc = true;
  auto engine = stm::make_engine(algo, cfg);
  std::vector<Word> mem(2, 0);
  stm::TxThread writer;
  stm::atomically(*engine, writer, [&](stm::TxThread& t) {
    engine->write(t, &mem[0], 1);
    engine->write(t, &mem[1], 1);
  });

  stm::TxThread reader;
  reader.read_only = true;
  engine->begin(reader);
  const Word a = engine->read(reader, &mem[0]);
  EXPECT_EQ(a, 1u);

  // The slipped commit: both words move to 2 while the reader is open.
  stm::atomically(*engine, writer, [&](stm::TxThread& t) {
    engine->write(t, &mem[0], 2);
    engine->write(t, &mem[1], 2);
  });

  // Pre-MVCC this read aborts (orec: version > start_time with the other
  // word already logged; NOrec: value validation fails). Now it must be
  // served at the reader's snapshot.
  const Word b = engine->read(reader, &mem[1]);
  EXPECT_EQ(b, 1u) << "torn snapshot";
  EXPECT_TRUE(reader.snapshot_pinned);
  EXPECT_GE(reader.mvcc_snapshot_reads, 1u);
  // Re-reading the first word after the pin stays consistent too.
  EXPECT_EQ(engine->read(reader, &mem[0]), 1u);
  engine->commit(reader);
  finish(reader);

  // After the reader closed, a fresh transaction sees the new values.
  engine->begin(reader);
  EXPECT_EQ(engine->read(reader, &mem[0]), 2u);
  EXPECT_EQ(engine->read(reader, &mem[1]), 2u);
  engine->commit(reader);
  finish(reader);
}

TEST(MvccSlippedCommit, ReaderSurvivesAcrossEnginesAndPolicies) {
  for (ClockPolicy policy : kPolicies) {
    run_slipped_commit(stm::Algo::kOrecEagerRedo, policy);
  }
  run_slipped_commit(stm::Algo::kNOrec, ClockPolicy::kGv1);
}

// Retention is bounded: once the covering window is evicted (orec ring
// depth laps / NOrec commit-log lap), a pinned reader falls back to the
// pre-MVCC conflict instead of returning anything stale.
TEST(MvccSlippedCommit, EvictedWindowFailsClosedToAConflict) {
  struct Case {
    stm::Algo algo;
    unsigned laps;
  };
  const Case cases[] = {
      // One stripe ring holds kDefaultDepth windows.
      {stm::Algo::kOrecEagerRedo, OrecVersionRings::kDefaultDepth + 1},
      // The commit-log ring holds kSlots commits.
      {stm::Algo::kNOrec, CommitLogRing::kSlots + 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(stm::to_string(c.algo));
    stm::EngineConfig cfg;
    cfg.mvcc = true;
    auto engine = stm::make_engine(c.algo, cfg);
    Word cell = 0;
    stm::TxThread writer;
    stm::atomically(*engine, writer, [&](stm::TxThread& t) {
      engine->write(t, &cell, 1);
    });

    stm::TxThread reader;
    reader.read_only = true;
    engine->begin(reader);
    EXPECT_EQ(engine->read(reader, &cell), 1u);
    stm::atomically(*engine, writer, [&](stm::TxThread& t) {
      engine->write(t, &cell, 100);
    });
    EXPECT_EQ(engine->read(reader, &cell), 1u);  // ring-served; pins
    ASSERT_TRUE(reader.snapshot_pinned);

    for (unsigned i = 0; i < c.laps; ++i) {
      stm::atomically(*engine, writer, [&](stm::TxThread& t) {
        engine->write(t, &cell, 101 + i);
      });
    }
    EXPECT_THROW(engine->read(reader, &cell), stm::TxConflict);
    finish(reader);
  }
}

// --- View::run_read snapshot walks under real concurrent writers -----------

// Writers keep every cell of an array equal through View::execute while
// readers sweep it through View::run_read (the container read path): any
// torn walk is a consistency failure. Covers all engines — MVCC-lite for
// NOrec/orec families, and the knob's inertness for TML/CGL.
void run_view_walks(stm::Algo algo) {
  SCOPED_TRACE(stm::to_string(algo));
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = 4;
  vc.rac = core::RacMode::kFixed;
  vc.fixed_quota = 4;
  vc.engine.mvcc = true;
  core::View view(vc);
  constexpr unsigned kCells = 12;
  constexpr unsigned kWriterTxs = 800;
  constexpr unsigned kReads = 800;
  auto* cells =
      static_cast<Word*>(view.alloc(kCells * sizeof(Word)));
  view.execute([&] {
    for (unsigned i = 0; i < kCells; ++i) core::vwrite<Word>(&cells[i], 0);
  });

  std::atomic<std::uint64_t> torn{0};
  std::thread writer([&] {
    for (unsigned j = 1; j <= kWriterTxs; ++j) {
      view.execute([&] {
        for (unsigned i = 0; i < kCells; ++i) {
          core::vwrite<Word>(&cells[i], j);
        }
      });
    }
  });
  std::thread reader([&] {
    for (unsigned j = 0; j < kReads; ++j) {
      const bool consistent = view.run_read([&] {
        const Word first = core::vread(&cells[0]);
        for (unsigned i = 1; i < kCells; ++i) {
          if (core::vread(&cells[i]) != first) return false;
        }
        return true;
      });
      if (!consistent) torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  const bool final_ok = view.run_read([&] {
    for (unsigned i = 0; i < kCells; ++i) {
      if (core::vread(&cells[i]) != kWriterTxs) return false;
    }
    return true;
  });
  EXPECT_TRUE(final_ok);
}

TEST(MvccViewWalks, RunReadStaysConsistentUnderWriters) {
  constexpr stm::Algo kAll[] = {
      stm::Algo::kNOrec,
      stm::Algo::kOrecEagerRedo,
      stm::Algo::kTml,
      stm::Algo::kCgl,
  };
  for (stm::Algo algo : kAll) run_view_walks(algo);
}

// Engine-direct stress: the orec engine under every clock policy, pairs
// kept equal by writers, swept by genuinely read-only transactions with
// MVCC on. Complements test_clock.cpp's run_pair_stress (mvcc off there:
// direct-constructed engines default off).
void run_pair_stress_mvcc(stm::Algo algo, ClockPolicy policy) {
  SCOPED_TRACE(std::string(stm::to_string(algo)) + "/" +
               stm::to_string(policy));
  stm::EngineConfig cfg;
  cfg.clock_policy = policy;
  cfg.mvcc = true;
  auto engine = stm::make_engine(algo, cfg);
  constexpr unsigned kTxs = 1200;
  constexpr unsigned kPairs = 4;
  std::vector<Word> data(kPairs * 2, 0);
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> ring_reads{0};

  std::thread writer([&] {
    stm::TxThread tx;
    for (unsigned j = 0; j < kTxs; ++j) {
      const unsigned p = j % kPairs;
      stm::atomically(*engine, tx, [&](stm::TxThread& t) {
        const Word v = engine->read(t, &data[2 * p]) + 1;
        engine->write(t, &data[2 * p], v);
        engine->write(t, &data[2 * p + 1], v);
      });
    }
  });
  std::thread reader([&] {
    stm::TxThread tx;
    tx.read_only = true;
    for (unsigned j = 0; j < kTxs; ++j) {
      const unsigned p = j % kPairs;
      Word a = 0;
      Word b = 0;
      stm::atomically(*engine, tx, [&](stm::TxThread& t) {
        a = engine->read(t, &data[2 * p]);
        b = engine->read(t, &data[2 * p + 1]);
      });
      ring_reads.fetch_add(tx.mvcc_snapshot_reads,
                           std::memory_order_relaxed);
      if (a != b) torn.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  for (unsigned p = 0; p < kPairs; ++p) {
    EXPECT_EQ(data[2 * p], data[2 * p + 1]) << "pair " << p;
  }
}

TEST(MvccStress, PairSnapshotsHoldWithMvccOn) {
  for (ClockPolicy policy : kPolicies) {
    run_pair_stress_mvcc(stm::Algo::kOrecEagerRedo, policy);
  }
  run_pair_stress_mvcc(stm::Algo::kNOrec, ClockPolicy::kGv1);
}

}  // namespace
}  // namespace votm

// --- votm-check: exploration + fault campaigns (harness builds only) -------

#include "check/sched_point.hpp"

#if defined(VOTM_SCHED_POINTS) && VOTM_SCHED_POINTS

#include <cstdlib>

#include "check/explore.hpp"
#include "check/fault.hpp"
#include "check/scenarios.hpp"

namespace votm::check {
namespace {

using stm::ClockPolicy;

constexpr stm::Algo kMvccAlgos[] = {
    stm::Algo::kNOrec,
    stm::Algo::kOrecEagerRedo,
};

TEST(MvccWalks, OpacityHoldsWithMvccOn) {
  for (stm::Algo algo : kMvccAlgos) {
    StmRandomConfig cfg;
    cfg.algo = algo;
    cfg.mvcc = true;
    StmRandomScenario scenario(cfg);
    const auto report = explore_random(scenario, 25, 0x3BC0);
    EXPECT_TRUE(report.clean()) << report.repro;
    EXPECT_EQ(report.runs, 25u);
  }
}

TEST(MvccWalks, SnapshotConsistencyHoldsWithMvccOn) {
  for (stm::Algo algo : kMvccAlgos) {
    // GV5 is the adversarial policy here: commit stamps run ahead of the
    // raw clock, which is exactly the real-time hazard
    // VersionClock::completed_commit_bound exists to close.
    for (ClockPolicy policy : {ClockPolicy::kGv1, ClockPolicy::kGv5}) {
      StmSnapshotConfig cfg;
      cfg.algo = algo;
      cfg.clock_policy = policy;
      cfg.mvcc = true;
      StmSnapshotScenario scenario(cfg);
      const auto report = explore_random(scenario, 25, 0x3BC1);
      EXPECT_TRUE(report.clean()) << report.repro;
    }
  }
}

// Availability fault: every ring lookup / reconstruction reports "lapped".
// The system must degrade to exactly the pre-MVCC behaviour (extend or
// conflict) with correctness intact; the trigger counter proves the
// campaign exercised the fallback.
TEST(MvccFault, RingLapFallbackIsHarmless) {
  for (stm::Algo algo : kMvccAlgos) {
    std::uint64_t triggers = 0;
    {
      FaultGuard guard(FaultSite::kMvccRingLap);
      StmSnapshotConfig cfg;
      cfg.algo = algo;
      cfg.mvcc = true;
      StmSnapshotScenario scenario(cfg);
      const auto report = explore_random(scenario, 20, 0x1A9);
      EXPECT_TRUE(report.clean()) << report.repro;
      triggers = FaultInjector::instance().triggers(FaultSite::kMvccRingLap);
    }
    EXPECT_GT(triggers, 0u) << stm::to_string(algo);
  }
}

// Seeded plans land the lap at different lookups of the run; any failure
// reproduces from (seed, schedule) alone — the repro line is the whole
// bug report.
TEST(MvccFault, SeededRingLapWindows) {
  std::uint64_t total_triggers = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultInjector::instance().arm_seeded(FaultSite::kMvccRingLap, seed,
                                         /*max_skip=*/10, /*fire=*/2);
    StmSnapshotConfig cfg;
    cfg.algo = seed % 2 == 0 ? stm::Algo::kNOrec : stm::Algo::kOrecEagerRedo;
    cfg.mvcc = true;
    StmSnapshotScenario scenario(cfg);
    const auto report = explore_random(scenario, 4, seed);
    EXPECT_TRUE(report.clean()) << "seed=" << seed << " " << report.repro;
    total_triggers +=
        FaultInjector::instance().triggers(FaultSite::kMvccRingLap);
    FaultInjector::instance().disarm(FaultSite::kMvccRingLap);
  }
  EXPECT_GT(total_triggers, 0u);
}

// Heavy campaign (VOTM_CHECK_HEAVY=1 ctest -R Heavy): the mvcc on/off
// matrix under a larger random-walk budget.
TEST(Heavy, MvccMatrixCampaign) {
  if (std::getenv("VOTM_CHECK_HEAVY") == nullptr) {
    GTEST_SKIP() << "set VOTM_CHECK_HEAVY=1 to run the mvcc campaign";
  }
  for (stm::Algo algo : kMvccAlgos) {
    for (bool mvcc : {false, true}) {
      StmRandomConfig cfg;
      cfg.algo = algo;
      cfg.mvcc = mvcc;
      StmRandomScenario scenario(cfg);
      const auto report = explore_random(scenario, 1000, 0xB1C);
      EXPECT_TRUE(report.clean()) << report.repro;

      StmSnapshotConfig snap;
      snap.algo = algo;
      snap.clock_policy = ClockPolicy::kGv5;
      snap.mvcc = mvcc;
      StmSnapshotScenario snap_scenario(snap);
      const auto snap_report = explore_random(snap_scenario, 400, 0xB1D);
      EXPECT_TRUE(snap_report.clean()) << snap_report.repro;
    }
  }
}

}  // namespace
}  // namespace votm::check

#endif  // VOTM_SCHED_POINTS
