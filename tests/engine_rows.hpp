// Parameter rows for the buffering-engine suites that also run the orec
// engine under non-default clock, contention and MVCC settings.
//
// A row is one byte, like stm::Algo, so gtest prints it the same way. The
// two combination rows keep the case names "OrecLazy" and "OrecEagerUndo":
// those are the names the rows had when these suites also ran a lazy-acquire
// and an undo-log orec engine, and keeping them keeps each case's history
// under one name. Both engines are gone; both rows run OrecEagerRedo.
#pragma once

#include <cstdint>
#include <string>

#include "stm/factory.hpp"

namespace votm::test_rows {

enum class EngineRow : std::uint8_t {
  kNOrec,
  kOrecEagerRedo,
  kOerGv5WaitTimeout,  // case name "OrecLazy"
  kOerGv5Mvcc,         // case name "OrecEagerUndo"
};

inline stm::Algo algo_of(EngineRow row) noexcept {
  return row == EngineRow::kNOrec ? stm::Algo::kNOrec
                                  : stm::Algo::kOrecEagerRedo;
}

// Layers the row's settings over what `config` already holds.
inline void apply_row(EngineRow row, stm::EngineConfig& config) noexcept {
  switch (row) {
    case EngineRow::kOerGv5WaitTimeout:
      config.clock_policy = stm::ClockPolicy::kGv5;
      config.contention_mode = stm::ContentionMode::kWaitTimeout;
      break;
    case EngineRow::kOerGv5Mvcc:
      config.clock_policy = stm::ClockPolicy::kGv5;
      config.mvcc = true;
      break;
    case EngineRow::kNOrec:
    case EngineRow::kOrecEagerRedo:
      break;
  }
}

inline std::string row_name(EngineRow row) {
  switch (row) {
    case EngineRow::kOerGv5WaitTimeout: return "OrecLazy";
    case EngineRow::kOerGv5Mvcc: return "OrecEagerUndo";
    case EngineRow::kNOrec:
    case EngineRow::kOrecEagerRedo: break;
  }
  return stm::to_string(algo_of(row));
}

}  // namespace votm::test_rows
