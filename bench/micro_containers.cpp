// Microbenchmarks of the transactional containers: operation costs inside
// single transactions and under multi-threaded load, per algorithm.
#include <benchmark/benchmark.h>

#include <iterator>

#include "containers/tx_counter.hpp"
#include "containers/tx_hash_map.hpp"
#include "containers/tx_sorted_list.hpp"
#include "containers/tx_stack.hpp"

namespace {

using namespace votm;

core::ViewConfig bench_view(stm::Algo algo) {
  core::ViewConfig vc;
  vc.algo = algo;
  vc.max_threads = 16;
  vc.rac = core::RacMode::kDisabled;
  vc.initial_bytes = 1 << 24;
  return vc;
}

// The engines measured; a case's "algo" argument indexes this list.
constexpr stm::Algo kAlgos[] = {stm::Algo::kNOrec, stm::Algo::kOrecEagerRedo,
                                stm::Algo::kTml};
constexpr int kLastAlgo = static_cast<int>(std::size(kAlgos)) - 1;

stm::Algo algo_of(const benchmark::State& state) {
  return kAlgos[state.range(0)];
}

void BM_HashMapPutGet(benchmark::State& state) {
  core::View view(bench_view(algo_of(state)));
  containers::TxHashMap map(view, 1024);
  stm::Word key = 0;
  for (auto _ : state) {
    ++key;
    view.execute([&] {
      map.put(key & 1023, key);
      stm::Word out = 0;
      map.get((key * 7) & 1023, &out);
      benchmark::DoNotOptimize(out);
    });
  }
  state.SetLabel(to_string(algo_of(state)));
}
BENCHMARK(BM_HashMapPutGet)->DenseRange(0, kLastAlgo)->ArgName("algo");

void BM_StackPushPop(benchmark::State& state) {
  core::View view(bench_view(algo_of(state)));
  containers::TxStack stack(view);
  for (auto _ : state) {
    view.execute([&] {
      stack.push(42);
      stm::Word out = 0;
      stack.pop(&out);
      benchmark::DoNotOptimize(out);
    });
  }
  state.SetLabel(to_string(algo_of(state)));
}
BENCHMARK(BM_StackPushPop)->DenseRange(0, kLastAlgo)->ArgName("algo");

void BM_SortedListInsertErase(benchmark::State& state) {
  core::View view(bench_view(algo_of(state)));
  containers::TxSortedList list(view);
  view.execute([&] {
    for (stm::Word v = 0; v < 128; ++v) list.insert(v * 2);
  });
  stm::Word v = 1;
  for (auto _ : state) {
    v = (v + 17) & 255;
    view.execute([&] {
      list.insert(v);
      list.erase(v);
    });
  }
  state.SetLabel(to_string(algo_of(state)));
}
BENCHMARK(BM_SortedListInsertErase)->DenseRange(0, kLastAlgo)->ArgName("algo");

void BM_CounterShardedVsSingle(benchmark::State& state) {
  // range(1): 0 = single word (TxVar-style), 1 = sharded counter.
  static core::View* view = nullptr;
  static containers::TxCounter* counter = nullptr;
  static stm::Word* single = nullptr;
  if (state.thread_index() == 0) {
    view = new core::View(bench_view(stm::Algo::kNOrec));
    counter = new containers::TxCounter(*view, 16);
    single = static_cast<stm::Word*>(view->alloc(sizeof(stm::Word)));
    core::vwrite<stm::Word>(single, 0);
  }
  const bool sharded = state.range(1) == 1;
  for (auto _ : state) {
    view->execute([&] {
      if (sharded) {
        counter->add(1);
      } else {
        core::vadd<stm::Word>(single, 1);
      }
    });
  }
  state.SetLabel(sharded ? "sharded" : "single-word");
  if (state.thread_index() == 0) {
    delete counter;
    delete view;
    counter = nullptr;
    view = nullptr;
  }
}
BENCHMARK(BM_CounterShardedVsSingle)
    ->ArgsProduct({{0}, {0, 1}})
    ->ArgNames({"algo", "sharded"})
    ->ThreadRange(1, 8)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
