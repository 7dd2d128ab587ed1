#include "stm/engine.hpp"

#include <stdexcept>

#include "stm/abort.hpp"

namespace votm::stm {

const char* to_string(ConflictKind kind) noexcept {
  switch (kind) {
    case ConflictKind::kReadLocked:
      return "read-locked";
    case ConflictKind::kWriteLocked:
      return "write-locked";
    case ConflictKind::kValidationFail:
      return "validation-fail";
    case ConflictKind::kCommitFail:
      return "commit-fail";
    case ConflictKind::kExplicit:
      return "explicit";
    case ConflictKind::kDeadline:
      return "deadline";
  }
  return "unknown";
}

void TxThread::conflict(ConflictKind kind) {
  // Roll back engine state (release encounter-time locks etc.), account the
  // wasted cycles, notify the admission layer, then transfer control.
  engine->rollback(*this);
  clear_logs();
  last_tx_cycles = collect_cycles ? tx_elapsed_cycles(*this) : 0;
  if (stats != nullptr) {
    stats->add_abort(last_tx_cycles);
  }
  in_tx = false;
  engine = nullptr;
  ++consecutive_aborts;
  if (on_rollback != nullptr) {
    on_rollback(*this);
  }
  if (abort_mode == AbortMode::kLongjmp) {
    std::longjmp(*checkpoint, 1);
  }
  throw TxConflict{kind};
}

void TxThread::misuse(const char* what) {
  engine->rollback(*this);
  clear_logs();
  in_tx = false;
  engine = nullptr;
  if (on_misuse != nullptr) {
    on_misuse(*this);
  } else if (on_rollback != nullptr) {
    on_rollback(*this);
  }
  throw std::logic_error(what);
}

}  // namespace votm::stm
