// Ownership records (orecs) for encounter-time locking algorithms.
//
// Every OrecEagerRedo view owns a private OrecTable — this is the
// "each view is essentially an independent TM system" property (paper
// Sec. II-B): conflicts can only arise between transactions on the same
// view, and the metadata of distinct views never shares state.
//
// An orec packs lock bit + payload into one word:
//   unlocked: (version << 1)        -- LSB 0, version from the view clock
//   locked:   (owner-pointer | 1)   -- LSB 1, owner is the TxThread
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

#include "util/cacheline.hpp"

namespace votm::stm {

struct TxThread;  // engine.hpp

class Orec {
 public:
  using Packed = std::uintptr_t;

  static constexpr Packed pack_version(std::uint64_t version) noexcept {
    return static_cast<Packed>(version) << 1;
  }
  static Packed pack_owner(const TxThread* owner) noexcept {
    return reinterpret_cast<Packed>(owner) | 1u;
  }
  static constexpr bool is_locked(Packed p) noexcept { return (p & 1u) != 0; }
  static constexpr std::uint64_t version_of(Packed p) noexcept {
    return static_cast<std::uint64_t>(p >> 1);
  }
  static TxThread* owner_of(Packed p) noexcept {
    return reinterpret_cast<TxThread*>(p & ~static_cast<Packed>(1));
  }

  Packed load(std::memory_order order = std::memory_order_acquire) const noexcept {
    return state_.load(order);
  }

  bool try_lock(Packed expected_version, const TxThread* owner) noexcept {
    return state_.compare_exchange_strong(expected_version, pack_owner(owner),
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  // Only the owner may call these.
  void unlock_to_version(std::uint64_t version) noexcept {
    state_.store(pack_version(version), std::memory_order_release);
  }

 private:
  std::atomic<Packed> state_{0};
};

// pack_owner() steals the pointer's LSB as the lock tag; owner_of() masks
// it back off. That round-trip is only lossless when no TxThread can sit
// at an odd address. Guarded here for the Orec word itself and again in
// engine.hpp for alignof(TxThread) (the type is incomplete at this point).
static_assert(sizeof(Orec) == sizeof(std::uintptr_t),
              "Orec must stay one packed word");
static_assert(alignof(Orec) == alignof(std::uintptr_t),
              "packed layout places orecs at word alignment");

// How the orecs themselves are laid out in the table's backing store.
//
//   kPadded  one orec per cache line (the historical layout). Two
//            transactions CASing/validating UNRELATED stripes never
//            ping-pong a shared line — under a hash that scatters hot
//            addresses uniformly, false sharing would otherwise be the
//            common case, silently re-coupling metadata the engine's
//            design says is independent. Costs 64 B/orec (256 KiB at the
//            default 4096 stripes, per engine instance).
//   kPacked  8 orecs per line, RSTM/TinySTM's classical layout. 8x the
//            stripes per cache footprint: a validation scan over many
//            stripes touches 1/8th the lines, at the price of metadata
//            false sharing between neighboring stripes. Which side wins
//            is workload-dependent — bench/micro_granularity measures it
//            instead of asserting it.
enum class OrecLayout : std::uint8_t {
  kPadded,
  kPacked,
};

inline const char* to_string(OrecLayout l) noexcept {
  switch (l) {
    case OrecLayout::kPadded: return "padded";
    case OrecLayout::kPacked: return "packed";
  }
  return "?";
}

inline bool orec_layout_from_string(const char* s, OrecLayout* out) noexcept {
  auto eq = [](const char* a, const char* b) noexcept {
    for (; *a && *b; ++a, ++b) {
      const char ca = (*a >= 'A' && *a <= 'Z') ? char(*a - 'A' + 'a') : *a;
      if (ca != *b) return false;
    }
    return *a == '\0' && *b == '\0';
  };
  if (eq(s, "padded") || eq(s, "pad")) { *out = OrecLayout::kPadded; return true; }
  if (eq(s, "packed") || eq(s, "pack")) { *out = OrecLayout::kPacked; return true; }
  return false;
}

// Construction knobs for one table. Implicitly convertible from a size so
// the long-standing `OrecTable(1 << 12)` / engine `(size, policy, ...)`
// call sites keep meaning what they always meant.
struct OrecTableConfig {
  static constexpr std::size_t kDefaultSize = std::size_t{1} << 12;
  // log2(bytes of application memory per stripe): 3 = word (historical
  // default), 6 = cache line, 7 = two lines. Coarser stripes shrink the
  // read log / validation scan for spatially local access at the price of
  // false conflicts between neighbors that share a stripe.
  static constexpr unsigned kDefaultGranularityShift = 3;
  static constexpr unsigned kMinGranularityShift = 3;   // sub-word is
                                                        // meaningless
  static constexpr unsigned kMaxGranularityShift = 12;  // a page per stripe

  std::size_t size = kDefaultSize;
  unsigned granularity_shift = kDefaultGranularityShift;
  OrecLayout layout = OrecLayout::kPadded;

  OrecTableConfig() = default;
  // Intentionally implicit: a bare size IS a complete legacy config.
  OrecTableConfig(std::size_t s) noexcept : size(s) {}  // NOLINT
};

// Fixed-size hash-indexed orec array. Addresses map onto orecs at the
// configured granularity; two distinct addresses may alias the same orec
// (a legal over-approximation of conflicts, exactly as in RSTM/TinySTM).
//
// The backing store is a raw, cache-line aligned byte buffer walked at a
// power-of-two stride (64 B padded / 8 B packed); see OrecLayout above for
// the tradeoff the stride encodes. It is zero-filled at construction, so
// every page is resident before the first transaction and cold-start page
// faults never land inside a timed critical section.
class OrecTable {
 public:
  static constexpr std::size_t kDefaultSize = OrecTableConfig::kDefaultSize;
  static constexpr unsigned kDefaultGranularityShift =
      OrecTableConfig::kDefaultGranularityShift;

  explicit OrecTable(OrecTableConfig config = {})
      : mask_(config.size - 1),
        granularity_shift_(config.granularity_shift),
        stride_shift_(config.layout == OrecLayout::kPadded ? 6u : 3u),
        layout_(config.layout),
        size_(config.size) {
    // size must be a power of two for the mask to be a valid index map.
    // Direct constructions stay strict (tests pin this contract); the
    // factory sanitizes user-supplied sizes before they reach here.
    if ((config.size & (config.size - 1)) != 0 || config.size == 0) {
      throw std::invalid_argument("OrecTable size must be a power of two");
    }
    if (config.granularity_shift < OrecTableConfig::kMinGranularityShift ||
        config.granularity_shift > OrecTableConfig::kMaxGranularityShift) {
      throw std::invalid_argument(
          "OrecTable granularity_shift out of range [3, 12]");
    }
    // Whole cache lines, so aligned_alloc's size contract holds (a packed
    // table smaller than one line is rounded up).
    bytes_ = ((size_ << stride_shift_) + 63) & ~std::size_t{63};
    buf_.reset(static_cast<std::byte*>(std::aligned_alloc(64, bytes_)));
    if (buf_ == nullptr) throw std::bad_alloc();
    std::memset(buf_.get(), 0, bytes_);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(buf_.get() + (i << stride_shift_))) Orec();
    }
  }

  // Orec is trivially destructible (a std::atomic word); the buffer just
  // goes away with buf_. Assert so a future Orec member can't leak.
  static_assert(std::is_trivially_destructible_v<Orec>);

  OrecTable(const OrecTable&) = delete;
  OrecTable& operator=(const OrecTable&) = delete;

  Orec& for_address(const void* addr) noexcept { return at(index_for(addr)); }

  // The stripe index behind for_address, exposed so sidecar per-stripe
  // structures (the MVCC version rings) share the exact same address->stripe
  // map without duplicating the hash. granularity_shift_ folds addresses
  // that share a 2^shift-byte block onto one stripe BEFORE mixing, so the
  // knob changes which addresses collide, not how well the hash spreads.
  std::size_t index_for(const void* addr) const noexcept {
    auto x = reinterpret_cast<std::uintptr_t>(addr) >> granularity_shift_;
    x ^= x >> 13;
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x) & mask_;
  }

  Orec& at(std::size_t index) noexcept {
    return *reinterpret_cast<Orec*>(buf_.get() + (index << stride_shift_));
  }

  std::size_t size() const noexcept { return size_; }
  unsigned granularity_shift() const noexcept { return granularity_shift_; }
  OrecLayout layout() const noexcept { return layout_; }
  std::size_t backing_bytes() const noexcept { return bytes_; }

 private:
  std::size_t mask_;
  unsigned granularity_shift_;
  unsigned stride_shift_;  // log2 bytes between orecs: 6 padded, 3 packed
  OrecLayout layout_;
  std::size_t size_;
  std::size_t bytes_ = 0;
  struct Free {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::byte, Free> buf_;
};

}  // namespace votm::stm
