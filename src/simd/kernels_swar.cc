// SWAR tier: 8-bytes-per-word classification. Always available on any
// host; the portable performance fallback when no vector unit is usable.
//
// ByteEqMask yields 0x80 in every matching byte; the multiply-compaction
// below gathers those per-byte flags into 8 LSB-first bits. The gather is
// exact: with x holding only 0/1 per byte, x * 0x0102040810204080 places
// byte k's bit at position 7k+7 + ... -- each product bit position has at
// most one (k, weight) contribution (k + j = 7 uniquely), so no carries.

#include <cstring>

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

/// Returns a word with bit 7 set in every byte of `w` equal to `c`. Uses
/// the exact (carry-free) zero-byte detector: the cheaper
/// `(x - ones) & ~x & highs` variant has false positives in bytes above a
/// true hit.
inline uint64_t ByteEqMask(uint64_t w, unsigned char c) {
  uint64_t x = w ^ (kOnes * c);
  // High bit of each byte is 0 iff the byte is zero.
  uint64_t nonzero = ((x & ~kHighs) + ~kHighs) | x;
  return ~nonzero & kHighs;
}

/// Loads 8 bytes unaligned, normalized so that the byte at `p` is the
/// least significant one (text order == bit order on every host).
inline uint64_t LoadWord(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

/// 0x80-per-byte mask -> 8 LSB-first bits (byte k of w -> bit k).
inline uint64_t Compact(uint64_t high_mask) {
  return ((high_mask >> 7) * 0x0102040810204080ull) >> 56;
}

uint64_t Eq64Swar(const unsigned char* p, unsigned char c) {
  uint64_t mask = 0;
  for (size_t w = 0; w < kBlock / 8; ++w) {
    uint64_t word = LoadWord(p + 8 * w);
    mask |= Compact(ByteEqMask(word, c)) << (8 * w);
  }
  return mask;
}

uint64_t Any64Swar(const unsigned char* p, const ByteSet& set) {
  uint64_t mask = 0;
  for (size_t w = 0; w < kBlock / 8; ++w) {
    uint64_t word = LoadWord(p + 8 * w);
    uint64_t hits = 0;
    for (unsigned j = 0; j < set.n; ++j) {
      hits |= ByteEqMask(word, set.chars[j]);
    }
    mask |= Compact(hits) << (8 * w);
  }
  return mask;
}

uint64_t Pair64Swar(const unsigned char* p, size_t delta, unsigned char a,
                    unsigned char b) {
  uint64_t mask = 0;
  for (size_t w = 0; w < kBlock / 8; ++w) {
    const unsigned char* base = p + 8 * w;
    uint64_t hits = ByteEqMask(LoadWord(base), a) &
                    ByteEqMask(LoadWord(base + delta), b);
    mask |= Compact(hits) << (8 * w);
  }
  return mask;
}

constexpr Kernels kSwar = {Isa::kSwar, Eq64Swar, Any64Swar, Pair64Swar};

}  // namespace

const Kernels& SwarKernels() { return kSwar; }

}  // namespace smpx::simd::detail
