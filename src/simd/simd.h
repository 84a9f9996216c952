// Vectorized structural byte classification with runtime CPU dispatch.
//
// The prefilter's remaining serial ceiling is its byte-scanning loops: the
// engine's tag/attribute span scans, the index's top-level boundary scan,
// and the BM/CW candidate probes. All of them reduce to the same primitive:
// "which positions of this input hold one of a handful of structural bytes
// ('<', '>', quotes, '-', ']', '?')?" This layer answers that question
// simdjson-style -- 64-bit bitmaps per 64-byte block, one vector pass per
// block -- through a kernel table selected once at startup:
//
//   scalar  per-byte reference loops; the oracle every other tier is
//           differentially verified against (bit-identical by construction)
//   swar    8-bytes-per-word scans; always available, the portable
//           performance fallback
//   sse2    16-byte vectors (x86-64 baseline)
//   sse42   the same 16-byte kernels compiled for the SSE4.2 feature level
//   avx2    32-byte vectors
//   neon    16-byte vectors on aarch64
//
// Selection: best available tier by CPUID (x86) / architecture (aarch64),
// overridable with SMPX_FORCE_ISA=scalar|swar|sse2|sse42|avx2|neon (an
// unavailable forced tier falls back to the best available at or below it).
// SetIsa() re-selects in-process for tests and benchmarks.
//
// Bitmap convention: bit i (LSB first) of a mask corresponds to byte p[i],
// so text order equals bit-scan order on every host. Block kernels require
// all 64 bytes readable; the *Tail helpers below never read past the given
// length (window edges, page ends).

#ifndef SMPX_SIMD_SIMD_H_
#define SMPX_SIMD_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace smpx::simd {

inline constexpr size_t kBlock = 64;   ///< bytes per bitmap block
inline constexpr size_t kNpos = ~size_t{0};

enum class Isa : int {
  kScalar = 0,
  kSwar = 1,
  kSse2 = 2,
  kSse42 = 3,
  kAvx2 = 4,
  kNeon = 5,
};

/// A small byte class (at most 8 members) for the any-of kernels.
struct ByteSet {
  unsigned char chars[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  unsigned n = 0;

  constexpr ByteSet() = default;
  constexpr explicit ByteSet(std::string_view members) {
    for (char c : members) {
      chars[n++] = static_cast<unsigned char>(c);
    }
  }
};

/// One dispatch tier: block-granular classification kernels. All function
/// pointers are non-null in every registered tier.
struct Kernels {
  Isa isa;
  /// Bit i = (p[i] == c) over the 64-byte block at p.
  uint64_t (*eq64)(const unsigned char* p, unsigned char c);
  /// Bit i = (p[i] is a member of set) over the 64-byte block at p.
  uint64_t (*any64)(const unsigned char* p, const ByteSet& set);
  /// Bit i = (p[i] == a && p[i + delta] == b). Requires both [p, p+64) and
  /// [p+delta, p+delta+64) readable.
  uint64_t (*pair64)(const unsigned char* p, size_t delta, unsigned char a,
                     unsigned char b);
};

namespace detail {
extern std::atomic<const Kernels*> g_active;
/// Slow path: runs CPU detection + SMPX_FORCE_ISA once, publishes the tier.
const Kernels& Init();
}  // namespace detail

/// The active kernel tier. Cheap enough for per-span use; hot loops should
/// still hoist it (`const Kernels& k = simd::Active();`) out of per-block
/// iterations.
inline const Kernels& Active() {
  const Kernels* k = detail::g_active.load(std::memory_order_relaxed);
  return k != nullptr ? *k : detail::Init();
}

inline Isa ActiveIsa() { return Active().isa; }

const char* IsaName(Isa isa);
bool IsaAvailable(Isa isa);
/// Every available tier, ascending (kScalar and kSwar always included).
std::vector<Isa> AvailableIsas();
/// Test/bench hook: re-selects the tier in-process (not thread-safe against
/// concurrent scans). An unavailable tier falls back to the best available
/// at or below it. Returns the tier actually installed.
Isa SetIsa(Isa isa);
/// Parses an SMPX_FORCE_ISA-style name; false on unknown names.
bool ParseIsa(std::string_view name, Isa* out);

// --- bit-scan helpers --------------------------------------------------------

/// Index (0-63) of the lowest set bit; `mask` must be non-zero.
inline unsigned NextSetBit(uint64_t mask) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(mask));
#else
  unsigned i = 0;
  while ((mask & 1) == 0) {
    mask >>= 1;
    ++i;
  }
  return i;
#endif
}

/// Clears the lowest set bit (advance to the next hit in the block).
inline uint64_t ClearLowestBit(uint64_t mask) { return mask & (mask - 1); }

/// Mask of the low `take` bits (all 64 when take >= 64).
inline uint64_t TakeMask(size_t take) {
  return take >= 64 ? ~uint64_t{0} : ((uint64_t{1} << take) - 1);
}

// --- masked tails (window edges) ---------------------------------------------
// The block kernels require 64 readable bytes; at a span or page end the
// remaining bytes are staged through a zeroed local block first, so no tier
// ever reads past `len` (guard-page safe). Bits at and above `len` are 0.

inline uint64_t EqMaskTail(const unsigned char* p, size_t len,
                           unsigned char c) {
  if (len >= kBlock) return Active().eq64(p, c);
  if (len == 0) return 0;
  alignas(64) unsigned char buf[kBlock] = {0};
  std::memcpy(buf, p, len);
  return Active().eq64(buf, c) & TakeMask(len);
}

inline uint64_t AnyMaskTail(const unsigned char* p, size_t len,
                            const ByteSet& set) {
  if (len >= kBlock) return Active().any64(p, set);
  if (len == 0) return 0;
  alignas(64) unsigned char buf[kBlock] = {0};
  std::memcpy(buf, p, len);
  return Active().any64(buf, set) & TakeMask(len);
}

/// Bitmap over alignments i of (p[i] == a && p[i+delta] == b), for
/// i in [0, min(avail - delta, 64)); `avail` = readable bytes at p.
inline uint64_t PairMaskTail(const unsigned char* p, size_t avail,
                             size_t delta, unsigned char a, unsigned char b) {
  if (avail <= delta) return 0;
  const size_t n_align = avail - delta < kBlock ? avail - delta : kBlock;
  return EqMaskTail(p, avail < kBlock ? avail : kBlock, a) &
         EqMaskTail(p + delta, n_align, b) & TakeMask(n_align);
}

// --- span scans --------------------------------------------------------------

/// First index in [0, n) with data[i] == c; n when absent.
inline size_t FindByte(const char* data, size_t n, unsigned char c) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  const Kernels& k = Active();
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    uint64_t m = k.eq64(p + i, c);
    if (m != 0) return i + NextSetBit(m);
  }
  if (i < n) {
    uint64_t m = EqMaskTail(p + i, n - i, c);
    if (m != 0) return i + NextSetBit(m);
  }
  return n;
}

/// First index in [0, n) whose byte is a member of `set`; n when absent.
inline size_t FindAny(const char* data, size_t n, const ByteSet& set) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  const Kernels& k = Active();
  size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    uint64_t m = k.any64(p + i, set);
    if (m != 0) return i + NextSetBit(m);
  }
  if (i < n) {
    uint64_t m = AnyMaskTail(p + i, n - i, set);
    if (m != 0) return i + NextSetBit(m);
  }
  return n;
}

/// First start position of `term` in [0, n); n when absent. Candidates are
/// alignments where the first AND last term byte match (shifted-mask AND);
/// longer terms verify the middle bytes per candidate.
inline size_t FindPattern(const char* data, size_t n, std::string_view term) {
  const size_t tn = term.size();
  if (tn == 0 || n < tn) return tn == 0 ? 0 : n;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  const unsigned char t0 = static_cast<unsigned char>(term[0]);
  const unsigned char tl = static_cast<unsigned char>(term[tn - 1]);
  const Kernels& k = Active();
  const size_t n_align = n - tn + 1;
  const unsigned char* tmid =
      reinterpret_cast<const unsigned char*>(term.data()) + 1;
  const size_t mid_len = tn > 2 ? tn - 2 : 0;
  size_t i = 0;
  for (;;) {
    uint64_t hits;
    if (i + kBlock + tn - 1 <= n) {
      hits = k.pair64(p + i, tn - 1, t0, tl);
    } else if (i < n_align) {
      hits = PairMaskTail(p + i, n - i, tn - 1, t0, tl);
    } else {
      break;
    }
    const unsigned char* block = p + i + 1;  // candidate middles, this block
    while (hits != 0) {
      const unsigned bit = NextSetBit(hits);
      hits = ClearLowestBit(hits);
      if (mid_len == 0 || std::memcmp(block + bit, tmid, mid_len) == 0) {
        return i + bit;
      }
    }
    i += kBlock;
    if (i >= n_align) break;
  }
  return n;
}

/// Bitmap-driven byte iterator: serves "next occurrence of c at or after
/// pos" queries over a fixed buffer, computing each 64-byte block's bitmap
/// once and bit-scanning within it. In tag-dense XML ('<' every ~15 bytes)
/// this amortizes to one classification per block instead of one
/// memchr/scan call per structural byte.
class MaskScanner {
 public:
  MaskScanner(const char* data, size_t n, unsigned char c)
      : p_(reinterpret_cast<const unsigned char*>(data)),
        n_(n),
        c_(c),
        kernels_(Active()) {}

  /// First index >= from with data[i] == c_; n when absent.
  size_t Next(size_t from) {
    if (from >= n_) return n_;
    size_t base = from & ~(kBlock - 1);
    uint64_t m;
    if (base == base_ && have_block_) {
      m = mask_;
    } else {
      m = Load(base);
    }
    m &= ~TakeMask(from - base);
    while (m == 0) {
      base += kBlock;
      if (base >= n_) return n_;
      m = Load(base);
    }
    return base + NextSetBit(m);
  }

 private:
  uint64_t Load(size_t base) {
    base_ = base;
    have_block_ = true;
    mask_ = n_ - base >= kBlock ? kernels_.eq64(p_ + base, c_)
                                : EqMaskTail(p_ + base, n_ - base, c_);
    return mask_;
  }

  const unsigned char* p_;
  size_t n_;
  unsigned char c_;
  const Kernels& kernels_;
  size_t base_ = 0;
  uint64_t mask_ = 0;
  bool have_block_ = false;
};

}  // namespace smpx::simd

#endif  // SMPX_SIMD_SIMD_H_
