// Transaction abort signalling.
//
// A conflict detected anywhere inside a transaction (read, write, or
// commit-time validation) funnels through TxThread::conflict(), which rolls
// the transaction back and then transfers control to the retry point:
// either by throwing TxConflict (C++ lambda API, stm::atomically,
// View::execute) or by longjmp (the C-style acquire_view API of the paper's
// Table I). TxConflict must never escape to user code.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace votm::stm {

// Why a transaction had to roll back. Carried for diagnostics and the
// failure-injection tests; the retry behaviour is identical for all kinds
// except kDeadline, which the View layer converts into DeadlineExceeded
// instead of retrying (DESIGN.md §19).
enum class ConflictKind : std::uint8_t {
  kReadLocked,      // read found an orec locked by another transaction
  kWriteLocked,     // write found an orec locked by another transaction
  kValidationFail,  // snapshot/read-set validation failed
  kCommitFail,      // commit-time acquisition or validation failed
  kExplicit,        // user called votm::abort_tx()
  kDeadline,        // the transaction's deadline passed (util/deadline.hpp)
};

struct TxConflict {
  ConflictKind kind;
};

// The defined bounded-time cancellation status. Unlike TxConflict this IS
// user-visible: it propagates past the retry loops (same control-flow
// shape as the std::logic_error misuse path), because a past-deadline
// transaction must not be silently re-executed. The rollback that
// precedes it is a complete abort — logs cleared, locks released, RAC
// admission left, the serial token (if held) released — so catching it
// leaves the view in a clean state and the caller free to re-run with a
// larger budget.
struct DeadlineExceeded : std::runtime_error {
  DeadlineExceeded()
      : std::runtime_error("votm: transaction deadline exceeded") {}
};

const char* to_string(ConflictKind kind) noexcept;

}  // namespace votm::stm
