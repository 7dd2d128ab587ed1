// Microbenchmarks of raw STM primitive costs per algorithm: read-only
// transactions, write transactions, read-modify-write, and read-after-write
// lookups. Single-threaded — these numbers isolate instrumentation
// overhead (the thing RAC's Q = 1 lock mode removes) from contention.
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <vector>

#include "stm/factory.hpp"

namespace {

using namespace votm::stm;

// The engines measured; a case's "algo" argument indexes this list.
constexpr Algo kAlgos[] = {Algo::kNOrec, Algo::kOrecEagerRedo, Algo::kTml,
                           Algo::kCgl};
constexpr int kLastAlgo = static_cast<int>(std::size(kAlgos)) - 1;

Algo algo_of(const benchmark::State& state) {
  return kAlgos[state.range(0)];
}

void set_label(benchmark::State& state) {
  state.SetLabel(to_string(algo_of(state)));
}

void BM_ReadOnlyTx(benchmark::State& state) {
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> data(1024, 7);
  const auto reads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    Word acc = 0;
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < reads; ++i) {
        acc += engine->read(t, &data[i * 37 % data.size()]);
      }
    });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(reads));
  set_label(state);
}
BENCHMARK(BM_ReadOnlyTx)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kLastAlgo, 1),
                   {1, 16, 100}})
    ->ArgNames({"algo", "reads"});

void BM_WriteTx(benchmark::State& state) {
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> data(1024, 0);
  const auto writes = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < writes; ++i) {
        engine->write(t, &data[i * 61 % data.size()], i);
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writes));
  set_label(state);
}
BENCHMARK(BM_WriteTx)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kLastAlgo, 1), {1, 20}})
    ->ArgNames({"algo", "writes"});

void BM_ReadModifyWrite(benchmark::State& state) {
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  Word cell = 0;
  for (auto _ : state) {
    atomically(*engine, tx, [&](TxThread& t) {
      engine->write(t, &cell, engine->read(t, &cell) + 1);
    });
  }
  set_label(state);
}
BENCHMARK(BM_ReadModifyWrite)->DenseRange(0, kLastAlgo)->ArgName("algo");

void BM_ReadAfterWrite(benchmark::State& state) {
  // Stresses the write-set lookup path: every read hits the redo log.
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> data(64, 0);
  for (auto _ : state) {
    Word acc = 0;
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        engine->write(t, &data[i], i);
      }
      for (std::size_t i = 0; i < data.size(); ++i) {
        acc += engine->read(t, &data[i]);
      }
    });
    benchmark::DoNotOptimize(acc);
  }
  set_label(state);
}
BENCHMARK(BM_ReadAfterWrite)->DenseRange(0, kLastAlgo)->ArgName("algo");

void BM_WriteSetLookupMiss(benchmark::State& state) {
  // Reads with a populated but non-matching write set: measures the filter.
  auto engine = make_engine(algo_of(state));
  TxThread tx;
  std::vector<Word> written(32, 0), read_only(1024, 1);
  for (auto _ : state) {
    Word acc = 0;
    atomically(*engine, tx, [&](TxThread& t) {
      for (std::size_t i = 0; i < written.size(); ++i) {
        engine->write(t, &written[i], i);
      }
      for (std::size_t i = 0; i < 256; ++i) {
        acc += engine->read(t, &read_only[i * 3 % read_only.size()]);
      }
    });
    benchmark::DoNotOptimize(acc);
  }
  set_label(state);
}
// NOrec and OrecEagerRedo only: the engines with a redo log to look up.
BENCHMARK(BM_WriteSetLookupMiss)->DenseRange(0, 1)->ArgName("algo");

}  // namespace

BENCHMARK_MAIN();
