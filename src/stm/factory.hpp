// Algorithm registry: RSTM-style "choose the TM algorithm by name".
//
// Every view picks its algorithm at creation; VOTM-OrecEagerRedo and
// VOTM-NOrec in the paper are exactly these two choices applied to all
// views of an application.
#pragma once

#include <memory>
#include <string>

#include "stm/clock.hpp"
#include "stm/contention.hpp"
#include "stm/engine.hpp"
#include "stm/mvcc.hpp"
#include "stm/orec_table.hpp"

namespace votm::stm {

// The values are fixed: parameterized test names and bench records carry
// them, so a deleted engine leaves a gap instead of renumbering the rest.
enum class Algo : std::uint8_t {
  kNOrec = 0,          // commit-time locking, value-based validation
  kOrecEagerRedo = 1,  // encounter-time locking, redo log
  kTml = 4,            // single sequence lock, irrevocable writer
  kCgl = 5,            // coarse-grained mutex (RAC's Q = 1 lock mode)
};

struct EngineConfig {
  // Sanitized by make_engine rather than validated: a non-power-of-two
  // request is rounded UP (0 -> 1) with a factory stat + stderr note,
  // instead of OrecTable's std::invalid_argument escaping from deep
  // inside view construction. Direct OrecTable/engine construction stays
  // strict.
  std::size_t orec_table_size = OrecTable::kDefaultSize;
  // log2 bytes of application memory per orec stripe: 3 = word (default,
  // historical behavior), 6 = cache line, 7 = two lines. Clamped by the
  // factory into OrecTableConfig's [3, 12] with a stat. Coarser stripes
  // shrink read logs and validation scans for spatially local workloads
  // at the price of false conflicts between stripe-sharing neighbors;
  // bench/micro_granularity maps the tradeoff.
  unsigned orec_granularity_shift = OrecTable::kDefaultGranularityShift;
  // One orec per cache line (padded; no metadata false sharing) or eight
  // per line (packed; 8x stripes per cache footprint). See OrecLayout.
  OrecLayout orec_layout = OrecLayout::kPadded;
  // NOrec commit-signature broadcast (validation filtering); the orec
  // engines' read-log dedup is a per-TxThread knob, not an engine one.
  // Default follows the VOTM_VALIDATION_FILTERS CMake option.
  bool norec_commit_filters = kValidationFiltersDefault;
  // Version-clock timestamp-allocation policy for the orec engine
  // (GV1/GV5, see stm/clock.hpp). NOrec/TML keep their sequence lock;
  // the setting is ignored there. Per view, like everything else in
  // EngineConfig (it rides in ViewConfig::engine).
  ClockPolicy clock_policy = ClockPolicy::kGv1;
  // MVCC-lite versioned read path (stm/mvcc.hpp, DESIGN.md §16): read-only
  // transactions fall back to retained ring values instead of aborting on a
  // slipped commit. Accepted by every algorithm; inert for TML/CGL (no
  // write logs to mine). Default follows the VOTM_MVCC CMake option; note
  // that engines constructed DIRECTLY (not via make_engine) default to
  // mvcc off, so pre-existing harnesses measure unchanged code.
  bool mvcc = kMvccDefault;
  // Retained (version, value) entries per orec stripe (orec engine only;
  // NOrec's global commit-log ring has a fixed shape).
  std::size_t mvcc_ring_depth = OrecVersionRings::kDefaultDepth;
  // Wait-based contention management (stm/contention.hpp, DESIGN.md §19):
  // on a foreign-locked orec the loser parks on the winner's orec with a
  // bounded wait instead of aborting; timeout falls back to today's
  // abort+backoff. OrecEagerRedo only; NOrec/TML/CGL accept and ignore it
  // (there is no lock whose wait could save the loser — see the
  // contention-mode row in docs/ALGORITHMS.md).
  ContentionMode contention_mode = ContentionMode::kAbortRetry;
  // Wait budget in spin iterations before the timeout fallback. Signed so
  // a negative request is representable: the factory clamps zero/negative
  // and over-limit values into [kCmWaitSpinsMin, kCmWaitSpinsMax] with a
  // stderr note + FactoryStats counter.
  std::int64_t cm_wait_spin_limit = kCmWaitSpinsDefault;
};

std::unique_ptr<TxEngine> make_engine(Algo algo, const EngineConfig& config = {});

// Process-wide counters for the factory's quiet input repairs; tests pin
// the sanitization behavior through these, and a production operator can
// tell a misconfigured deployment from a clean one.
struct FactoryStats {
  std::uint64_t orec_size_roundups;       // non-pow2 (or 0) sizes rounded up
  std::uint64_t orec_granularity_clamps;  // out-of-range shifts clamped
  std::uint64_t cm_wait_clamps;           // zero/negative/huge wait budgets
  std::uint64_t deadline_clamps;          // negative tx deadlines -> disabled
  std::uint64_t watermark_clamps;         // hard watermark raised to soft
};
FactoryStats factory_stats() noexcept;

// The sanitized table config make_engine would build — exposed so tests
// and tools can predict the exact table an EngineConfig yields.
OrecTableConfig sanitized_orec_table_config(const EngineConfig& config);

// Sanitized wait-CM budget: zero/negative and over-limit values clamp into
// [kCmWaitSpinsMin, kCmWaitSpinsMax] (stderr note + cm_wait_clamps).
std::uint32_t sanitized_cm_wait_spin_limit(std::int64_t requested);

// The sanitized wait-CM bundle make_engine hands the orec engine —
// exposed so tests and harnesses can predict the exact runtime an
// EngineConfig yields.
CmRuntime sanitized_cm_runtime(const EngineConfig& config);

// View-level robustness knobs share the factory's clamp-and-count
// treatment (core/view.cpp calls these at construction):
//   * a negative tx deadline means nothing — sanitized to 0 (disabled);
//   * a hard limbo watermark BELOW the soft one would shed load before
//     trying to reclaim — the hard mark is raised to the soft mark.
std::int64_t sanitized_tx_deadline_ns(std::int64_t requested);
std::size_t sanitized_limbo_hard_watermark(std::size_t soft, std::size_t hard);

// Parses "norec", "oer"/"oreceagerredo", "tml", "cgl"/"lock"
// (case-insensitive).
Algo algo_from_string(const std::string& name);
const char* to_string(Algo algo) noexcept;

}  // namespace votm::stm
