// The benchmark's three workloads, each as a round: the constructor is the
// set-up (generate the input from the seed, build the views, prefill), and
// work() is one worker thread's share of the run. The driver in main.cpp
// times the two apart, checks the round, then destroys it.
//
// Every round runs in the paper's raw configuration: N worker threads, no
// in-transaction yields, no backoff.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "eigenbench/params.hpp"
#include "intruder/detector.hpp"
#include "intruder/dictionary.hpp"
#include "intruder/generator.hpp"
#include "intruder/tx_queue.hpp"
#include "trace.hpp"
#include "vacation/tables.hpp"

namespace perfbench {

// Interface every round implements:
//   Round(const RoundConfig&)      set-up
//   unsigned workers() const       worker threads that run it
//   template <class Log> void work(unsigned tid, Log& log)
//   std::uint64_t ops() const      operations the round attempts
//   std::uint64_t failed()         operations that did not complete
//                                  correctly (the correctness gate)
//   std::vector<View*> views()     for per-layer metrics and parity
//   TraceSpec trace_spec() const
//   static std::uint64_t world_commits(const RoundConfig&)
//                                  commits of the library's own driver
//                                  for the same input (parity check)

// Two-view Eigenbench (paper Fig. 3, Table II objects), OrecEagerRedo,
// multi-view, both quotas fixed at N (Table V, Q1 = N). One operation is
// one loop iteration, i.e. one transaction on one of the two objects.
class EigenRound {
 public:
  explicit EigenRound(const RoundConfig& config);
  ~EigenRound();

  unsigned workers() const { return config_.threads; }

  template <class Log>
  void work(unsigned tid, Log& log);

  std::uint64_t ops() const;
  std::uint64_t failed();
  std::vector<votm::core::View*> views();
  TraceSpec trace_spec() const;
  static std::uint64_t world_commits(const RoundConfig& config);

 private:
  struct Object;
  struct Schedule {
    std::vector<std::uint8_t> object;  // object of each iteration
    std::vector<std::uint64_t> seed;   // access-pattern seed of each
  };
  void body(const Object& ob, unsigned tid, std::uint64_t iter_seed);

  RoundConfig config_;
  std::vector<votm::eigen::ObjectParams> params_;
  std::vector<std::unique_ptr<votm::core::View>> views_;
  std::vector<std::unique_ptr<Object>> objects_;
  std::vector<Schedule> schedules_;
  std::vector<std::uint64_t> completed_;  // per thread
};

// STAMP Intruder on NOrec, multi-view (queue view + dictionary view),
// adaptive RAC (Table X). One operation is one packet.
class IntruderRound {
 public:
  explicit IntruderRound(const RoundConfig& config);
  ~IntruderRound();

  unsigned workers() const { return config_.threads; }

  template <class Log>
  void work(unsigned tid, Log& log);

  std::uint64_t ops() const;
  std::uint64_t failed();
  std::vector<votm::core::View*> views();
  TraceSpec trace_spec() const;
  static std::uint64_t world_commits(const RoundConfig& config);

 private:
  struct Tally {
    std::uint64_t packets = 0, flows = 0, attacks = 0;
  };

  RoundConfig config_;
  votm::intruder::GeneratorConfig gen_;
  votm::intruder::Detector detector_;
  votm::intruder::GeneratedStream stream_;
  std::vector<std::unique_ptr<votm::core::View>> views_;
  std::unique_ptr<votm::intruder::TxQueue> queue_;
  std::unique_ptr<votm::intruder::TxDictionary> dictionary_;
  std::vector<Tally> tallies_;  // per thread
};

// Vacation: cars, flights, rooms and customers in four views on NOrec with
// adaptive RAC, views sized for N threads. One operation is one client
// task. The task streams of N clients are interleaved into one list that a
// single worker runs: on a shared VM, N workers made the round time follow
// the host's CPU steal (see README.md), while one worker measures the
// fixed per-transaction cost this workload is here for.
class VacationRound {
 public:
  explicit VacationRound(const RoundConfig& config);
  ~VacationRound();

  unsigned workers() const { return 1; }

  template <class Log>
  void work(unsigned tid, Log& log);

  std::uint64_t ops() const;
  std::uint64_t failed();
  std::vector<votm::core::View*> views();
  TraceSpec trace_spec() const;
  static std::uint64_t world_commits(const RoundConfig& config);

 private:
  struct Task;
  template <class Log>
  void run_task(const Task& t, Log& log, std::vector<votm::stm::Word>& drained);
  votm::core::View& view_of(votm::vacation::Kind kind);
  votm::vacation::ResourceTable& table_of(votm::vacation::Kind kind);

  RoundConfig config_;
  std::vector<std::unique_ptr<votm::core::View>> views_;
  std::unique_ptr<votm::vacation::ResourceTable> cars_, flights_, rooms_;
  std::unique_ptr<votm::vacation::CustomerTable> customers_;
  std::vector<Task> tasks_;  // generated at set-up, in run order
};

}  // namespace perfbench
