#include "stm/factory.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "stm/cgl.hpp"
#include "stm/norec.hpp"
#include "stm/orec_engine.hpp"
#include "stm/tml.hpp"

namespace votm::stm {

namespace {

std::atomic<std::uint64_t> g_orec_size_roundups{0};
std::atomic<std::uint64_t> g_orec_granularity_clamps{0};
std::atomic<std::uint64_t> g_cm_wait_clamps{0};
std::atomic<std::uint64_t> g_deadline_clamps{0};
std::atomic<std::uint64_t> g_watermark_clamps{0};

std::size_t round_up_pow2(std::size_t n) noexcept {
  if (n <= 1) return 1;
  // Highest settable bit without overflow: above it, clamp down instead
  // of wrapping to 0.
  constexpr std::size_t kTop = std::size_t{1}
                               << (sizeof(std::size_t) * 8 - 1);
  if (n > kTop) return kTop;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

OrecTableConfig sanitized_orec_table_config(const EngineConfig& config) {
  OrecTableConfig table;
  table.size = config.orec_table_size;
  table.granularity_shift = config.orec_granularity_shift;
  table.layout = config.orec_layout;
  if (table.size == 0 || (table.size & (table.size - 1)) != 0) {
    const std::size_t rounded = round_up_pow2(table.size);
    g_orec_size_roundups.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "votm: orec_table_size %zu is not a power of two; "
                 "rounded up to %zu\n",
                 table.size, rounded);
    table.size = rounded;
  }
  if (table.granularity_shift < OrecTableConfig::kMinGranularityShift ||
      table.granularity_shift > OrecTableConfig::kMaxGranularityShift) {
    const unsigned clamped =
        std::clamp(table.granularity_shift,
                   OrecTableConfig::kMinGranularityShift,
                   OrecTableConfig::kMaxGranularityShift);
    g_orec_granularity_clamps.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "votm: orec_granularity_shift %u out of [3, 12]; "
                 "clamped to %u\n",
                 table.granularity_shift, clamped);
    table.granularity_shift = clamped;
  }
  return table;
}

std::uint32_t sanitized_cm_wait_spin_limit(std::int64_t requested) {
  if (requested >= static_cast<std::int64_t>(kCmWaitSpinsMin) &&
      requested <= static_cast<std::int64_t>(kCmWaitSpinsMax)) {
    return static_cast<std::uint32_t>(requested);
  }
  const std::uint32_t clamped =
      requested < static_cast<std::int64_t>(kCmWaitSpinsMin)
          ? kCmWaitSpinsMin
          : kCmWaitSpinsMax;
  g_cm_wait_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: cm_wait_spin_limit %lld out of [%u, %u]; clamped "
               "to %u\n",
               static_cast<long long>(requested), kCmWaitSpinsMin,
               kCmWaitSpinsMax, clamped);
  return clamped;
}

CmRuntime sanitized_cm_runtime(const EngineConfig& config) {
  CmRuntime cm;
  cm.mode = config.contention_mode;
  cm.wait_spins = sanitized_cm_wait_spin_limit(config.cm_wait_spin_limit);
  return cm;
}

std::int64_t sanitized_tx_deadline_ns(std::int64_t requested) {
  if (requested >= 0) return requested;
  g_deadline_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: tx_deadline_ns %lld is negative; deadline disabled\n",
               static_cast<long long>(requested));
  return 0;
}

std::size_t sanitized_limbo_hard_watermark(std::size_t soft,
                                           std::size_t hard) {
  // Both enabled with hard < soft would shed quota before a reclaim pass
  // ever ran; raise the hard mark so soft always triggers first.
  if (soft == 0 || hard == 0 || hard >= soft) return hard;
  g_watermark_clamps.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "votm: limbo_hard_watermark %zu below soft watermark %zu; "
               "raised to %zu\n",
               hard, soft, soft);
  return soft;
}

FactoryStats factory_stats() noexcept {
  return FactoryStats{
      g_orec_size_roundups.load(std::memory_order_relaxed),
      g_orec_granularity_clamps.load(std::memory_order_relaxed),
      g_cm_wait_clamps.load(std::memory_order_relaxed),
      g_deadline_clamps.load(std::memory_order_relaxed),
      g_watermark_clamps.load(std::memory_order_relaxed),
  };
}

namespace {
template <typename OrecEngineT>
std::unique_ptr<TxEngine> make_orec_engine(const EngineConfig& config) {
  return std::make_unique<OrecEngineT>(
      sanitized_orec_table_config(config), config.clock_policy, config.mvcc,
      config.mvcc_ring_depth, sanitized_cm_runtime(config));
}
}  // namespace

std::unique_ptr<TxEngine> make_engine(Algo algo, const EngineConfig& config) {
  switch (algo) {
    case Algo::kNOrec:
      return std::make_unique<NOrecEngine>(config.norec_commit_filters,
                                           config.mvcc);
    case Algo::kOrecEagerRedo:
      return make_orec_engine<OrecEagerRedoEngine>(config);
    case Algo::kOrecLazy:
      return make_orec_engine<OrecLazyEngine>(config);
    case Algo::kOrecEagerUndo:
      return make_orec_engine<OrecEagerUndoEngine>(config);
    case Algo::kTml:
      return std::make_unique<TmlEngine>();
    case Algo::kCgl:
      return std::make_unique<CglEngine>();
  }
  throw std::invalid_argument("unknown STM algorithm");
}

Algo algo_from_string(const std::string& name) {
  std::string lower(name.size(), '\0');
  std::transform(name.begin(), name.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "norec") return Algo::kNOrec;
  if (lower == "oer" || lower == "oreceagerredo") return Algo::kOrecEagerRedo;
  if (lower == "lazy" || lower == "oreclazy") return Algo::kOrecLazy;
  if (lower == "undo" || lower == "oreceagerundo") return Algo::kOrecEagerUndo;
  if (lower == "tml") return Algo::kTml;
  if (lower == "cgl" || lower == "lock") return Algo::kCgl;
  throw std::invalid_argument("unknown STM algorithm: " + name);
}

const char* to_string(Algo algo) noexcept {
  switch (algo) {
    case Algo::kNOrec:
      return "NOrec";
    case Algo::kOrecEagerRedo:
      return "OrecEagerRedo";
    case Algo::kOrecLazy:
      return "OrecLazy";
    case Algo::kOrecEagerUndo:
      return "OrecEagerUndo";
    case Algo::kTml:
      return "TML";
    case Algo::kCgl:
      return "CGL";
  }
  return "?";
}

}  // namespace votm::stm
