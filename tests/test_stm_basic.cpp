// Single-threaded behavioural tests of each STM engine: commit visibility,
// read-after-write, rollback on abort, read-only commits, write-set
// semantics, orec packing, log structures.
#include <gtest/gtest.h>

#include <memory>

#include "engine_rows.hpp"
#include "stm/access.hpp"
#include "stm/cgl.hpp"
#include "stm/factory.hpp"
#include "stm/logs.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "stm/orec_table.hpp"
#include "stm/tml.hpp"

namespace votm::stm {
namespace {

class StmBasic : public ::testing::TestWithParam<Algo> {
 protected:
  void SetUp() override { engine_ = make_engine(GetParam()); }
  std::unique_ptr<TxEngine> engine_;
  TxThread tx_;
};

TEST_P(StmBasic, CommitPublishesWrites) {
  Word data[4] = {0, 0, 0, 0};
  atomically(*engine_, tx_, [&](TxThread& tx) {
    engine_->write(tx, &data[0], 11);
    engine_->write(tx, &data[2], 22);
  });
  EXPECT_EQ(data[0], 11u);
  EXPECT_EQ(data[1], 0u);
  EXPECT_EQ(data[2], 22u);
}

TEST_P(StmBasic, ReadSeesPriorCommit) {
  Word cell = 123;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) { seen = engine_->read(tx, &cell); });
  EXPECT_EQ(seen, 123u);
}

TEST_P(StmBasic, ReadAfterWriteReturnsBufferedValue) {
  Word cell = 1;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    engine_->write(tx, &cell, 77);
    seen = engine_->read(tx, &cell);
  });
  EXPECT_EQ(seen, 77u);
  EXPECT_EQ(cell, 77u);
}

TEST_P(StmBasic, OverwriteKeepsLastValue) {
  Word cell = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) {
    for (Word v = 1; v <= 10; ++v) engine_->write(tx, &cell, v);
  });
  EXPECT_EQ(cell, 10u);
}

TEST_P(StmBasic, UserExceptionRollsBack) {
  if (!engine_->speculative()) GTEST_SKIP() << "CGL writes in place";
  if (GetParam() == Algo::kTml) GTEST_SKIP() << "TML writers are irrevocable";
  Word cell = 5;
  struct Boom {};
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) {
                            engine_->write(tx, &cell, 99);
                            throw Boom{};
                          }),
               Boom);
  EXPECT_EQ(cell, 5u);  // speculative write never published
  EXPECT_FALSE(tx_.in_tx);
}

TEST_P(StmBasic, UserExceptionEndsTheRunsAbortStreak) {
  // Three conflicts, then a user exception: the run is over, so its abort
  // streak (and backoff exponent, deadline, CM priority) must not carry
  // into this thread's next, unrelated transaction.
  if (!engine_->speculative()) GTEST_SKIP() << "CGL never conflicts";
  struct Boom {};
  int attempts = 0;
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) {
                            if (++attempts <= 3) {
                              tx.conflict(ConflictKind::kExplicit);
                            }
                            throw Boom{};
                          }),
               Boom);
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(tx_.consecutive_aborts, 0u);
  EXPECT_FALSE(tx_.in_tx);
}

TEST_P(StmBasic, ReadOnlyTransactionCommits) {
  Word cell = 42;
  tx_.read_only = true;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& tx) { seen = engine_->read(tx, &cell); });
  tx_.read_only = false;
  EXPECT_EQ(seen, 42u);
}

TEST_P(StmBasic, WriteInReadOnlyTransactionIsMisuse) {
  Word cell = 1;
  tx_.read_only = true;
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& tx) { engine_->write(tx, &cell, 2); }),
               std::logic_error);
  tx_.read_only = false;
  EXPECT_EQ(cell, 1u);
  EXPECT_FALSE(tx_.in_tx);
}

TEST_P(StmBasic, SequentialTransactionsAccumulate) {
  Word counter = 0;
  for (int i = 0; i < 100; ++i) {
    atomically(*engine_, tx_, [&](TxThread& tx) {
      engine_->write(tx, &counter, engine_->read(tx, &counter) + 1);
    });
  }
  EXPECT_EQ(counter, 100u);
}

TEST_P(StmBasic, ManyDistinctWritesInOneTransaction) {
  constexpr int kWords = 500;  // exceeds the write-set growth threshold
  std::vector<Word> data(kWords, 0);
  atomically(*engine_, tx_, [&](TxThread& tx) {
    for (int i = 0; i < kWords; ++i) {
      engine_->write(tx, &data[i], static_cast<Word>(i + 1));
    }
  });
  for (int i = 0; i < kWords; ++i) EXPECT_EQ(data[i], static_cast<Word>(i + 1));
}

TEST_P(StmBasic, StatsAccumulateCommits) {
  StripedEpochStats stats;
  tx_.stats = &stats;
  Word cell = 0;
  for (int i = 0; i < 5; ++i) {
    atomically(*engine_, tx_, [&](TxThread& tx) { engine_->write(tx, &cell, 1); });
  }
  tx_.stats = nullptr;
  const StatsSnapshot total = stats.fold();
  EXPECT_EQ(total.commits, 5u);
  EXPECT_EQ(total.aborts, 0u);
  EXPECT_GT(total.committed_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StmBasic,
                         ::testing::Values(Algo::kNOrec, Algo::kOrecEagerRedo,
                                           Algo::kTml, Algo::kCgl),
                         [](const auto& info) { return to_string(info.param); });

TEST(WriteSetTest, InsertLookupOverwrite) {
  WriteSet ws;
  Word a = 0, b = 0;
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.lookup(&a), nullptr);
  ws.insert(&a, 1);
  ws.insert(&b, 2);
  ws.insert(&a, 3);
  ASSERT_NE(ws.lookup(&a), nullptr);
  EXPECT_EQ(*ws.lookup(&a), 3u);
  EXPECT_EQ(*ws.lookup(&b), 2u);
  EXPECT_EQ(ws.size(), 2u);
}

TEST(WriteSetTest, ClearKeepsCapacityAndEmpties) {
  WriteSet ws;
  std::vector<Word> cells(100);
  for (auto& c : cells) ws.insert(&c, 1);
  ws.clear();
  EXPECT_TRUE(ws.empty());
  for (auto& c : cells) EXPECT_EQ(ws.lookup(&c), nullptr);
}

TEST(WriteSetTest, GrowthPreservesEntries) {
  WriteSet ws;
  std::vector<Word> cells(1000);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ws.insert(&cells[i], static_cast<Word>(i));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_NE(ws.lookup(&cells[i]), nullptr);
    EXPECT_EQ(*ws.lookup(&cells[i]), static_cast<Word>(i));
  }
  // Insertion order is preserved for write-back.
  const auto& entries = ws.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].addr, &cells[i]);
  }
}

TEST(ValueReadLogTest, DetectsChangedValue) {
  ValueReadLog log;
  Word cell = 7;
  log.push(&cell, 7);
  EXPECT_TRUE(log.values_match());
  cell = 8;
  EXPECT_FALSE(log.values_match());
}

TEST(OrecTest, PackUnpackRoundTrip) {
  EXPECT_FALSE(Orec::is_locked(Orec::pack_version(41)));
  EXPECT_EQ(Orec::version_of(Orec::pack_version(41)), 41u);
  TxThread tx;
  const auto locked = Orec::pack_owner(&tx);
  EXPECT_TRUE(Orec::is_locked(locked));
  EXPECT_EQ(Orec::owner_of(locked), &tx);
}

TEST(OrecTableTest, SameAddressSameOrec) {
  OrecTable table(1024);
  Word cell = 0;
  EXPECT_EQ(&table.for_address(&cell), &table.for_address(&cell));
}

TEST(OrecTableTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW(OrecTable(1000), std::invalid_argument);
  EXPECT_THROW(OrecTable(0), std::invalid_argument);
}

TEST(OrecTableTest, SpreadsAddresses) {
  OrecTable table(4096);
  std::vector<Word> cells(2048);
  std::set<const Orec*> used;
  for (const auto& c : cells) used.insert(&table.for_address(&c));
  // With 4096 orecs and 2048 distinct words, expect broad (not perfect)
  // dispersion; a constant hash would collapse to 1.
  EXPECT_GT(used.size(), 1000u);
}

TEST(FactoryTest, NamesRoundTrip) {
  for (Algo algo : {Algo::kNOrec, Algo::kOrecEagerRedo, Algo::kTml,
                    Algo::kCgl}) {
    EXPECT_EQ(algo_from_string(to_string(algo)), algo);
  }
  EXPECT_EQ(algo_from_string("oer"), Algo::kOrecEagerRedo);
  EXPECT_EQ(algo_from_string("lock"), Algo::kCgl);
  EXPECT_THROW(algo_from_string("bogus"), std::invalid_argument);
}

// Every address aliases the single orec of a one-entry table: the second
// write finds the orec already owned and must not deadlock — nor park on
// its own lock under wait-timeout CM, nor lose a word when MVCC publishes
// both through one orec's ring (the two combination rows, see
// tests/engine_rows.hpp).
class OrecAliasing : public ::testing::TestWithParam<test_rows::EngineRow> {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.orec_table_size = 1;
    test_rows::apply_row(GetParam(), config);
    engine_ = make_engine(test_rows::algo_of(GetParam()), config);
  }
  std::unique_ptr<TxEngine> engine_;
  TxThread tx_;
};

TEST_P(OrecAliasing, AliasedWritesCommitThroughOneOrec) {
  Word a = 0, b = 0;
  atomically(*engine_, tx_, [&](TxThread& t) {
    engine_->write(t, &a, 1);
    engine_->write(t, &b, 2);
    EXPECT_EQ(engine_->read(t, &a), 1u);
    EXPECT_EQ(engine_->read(t, &b), 2u);
  });
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
}

TEST_P(OrecAliasing, UnwrittenAliasedWordReadsCommittedValue) {
  Word a = 0, c = 7;
  Word seen = 0;
  atomically(*engine_, tx_, [&](TxThread& t) {
    engine_->write(t, &a, 1);
    seen = engine_->read(t, &c);  // covered by the orec we may now own
  });
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(c, 7u);
}

TEST_P(OrecAliasing, UserExceptionAfterAliasedWritesLeavesBothUnchanged) {
  Word a = 10, b = 20;
  struct Boom {};
  EXPECT_THROW(atomically(*engine_, tx_,
                          [&](TxThread& t) {
                            engine_->write(t, &a, 1);
                            engine_->write(t, &b, 2);
                            engine_->write(t, &a, 3);
                            throw Boom{};
                          }),
               Boom);
  EXPECT_EQ(a, 10u);
  EXPECT_EQ(b, 20u);
  // The orec was released: a later transaction can take it again.
  atomically(*engine_, tx_, [&](TxThread& t) { engine_->write(t, &b, 21); });
  EXPECT_EQ(b, 21u);
}

INSTANTIATE_TEST_SUITE_P(
    OrecAlgorithms, OrecAliasing,
    ::testing::Values(test_rows::EngineRow::kOrecEagerRedo,
                      test_rows::EngineRow::kOerGv5WaitTimeout,
                      test_rows::EngineRow::kOerGv5Mvcc),
    [](const auto& info) { return test_rows::row_name(info.param); });

TEST(FactoryTest, EngineNamesMatch) {
  EXPECT_STREQ(make_engine(Algo::kNOrec)->name(), "NOrec");
  EXPECT_STREQ(make_engine(Algo::kOrecEagerRedo)->name(), "OrecEagerRedo");
  EXPECT_STREQ(make_engine(Algo::kTml)->name(), "TML");
  EXPECT_STREQ(make_engine(Algo::kCgl)->name(), "CGL");
  EXPECT_FALSE(make_engine(Algo::kCgl)->speculative());
  EXPECT_TRUE(make_engine(Algo::kNOrec)->speculative());
}

}  // namespace
}  // namespace votm::stm
