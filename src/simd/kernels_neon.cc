// NEON tier (aarch64 baseline): 16-byte vector classification. NEON has no
// movemask; the compare result is ANDed with per-lane bit weights
// (1,2,4,...,128 repeating) and each 8-lane half is summed horizontally
// (vaddv_u8) into one LSB-first byte of the block mask.

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

inline uint64_t MoveMask16Neon(uint8x16_t eq) {
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  uint8x16_t bits = vandq_u8(eq, weights);
  return static_cast<uint64_t>(vaddv_u8(vget_low_u8(bits))) |
         (static_cast<uint64_t>(vaddv_u8(vget_high_u8(bits))) << 8);
}

uint64_t Eq64Neon(const unsigned char* p, unsigned char c) {
  const uint8x16_t needle = vdupq_n_u8(c);
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    uint8x16_t block = vld1q_u8(p + 16 * v);
    mask |= MoveMask16Neon(vceqq_u8(block, needle)) << (16 * v);
  }
  return mask;
}

uint64_t Any64Neon(const unsigned char* p, const ByteSet& set) {
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    uint8x16_t block = vld1q_u8(p + 16 * v);
    uint8x16_t hits = vdupq_n_u8(0);
    for (unsigned j = 0; j < set.n; ++j) {
      hits = vorrq_u8(hits, vceqq_u8(block, vdupq_n_u8(set.chars[j])));
    }
    mask |= MoveMask16Neon(hits) << (16 * v);
  }
  return mask;
}

uint64_t Pair64Neon(const unsigned char* p, size_t delta, unsigned char a,
                    unsigned char b) {
  const uint8x16_t na = vdupq_n_u8(a);
  const uint8x16_t nb = vdupq_n_u8(b);
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    uint8x16_t lo = vld1q_u8(p + 16 * v);
    uint8x16_t hi = vld1q_u8(p + 16 * v + delta);
    uint8x16_t hits = vandq_u8(vceqq_u8(lo, na), vceqq_u8(hi, nb));
    mask |= MoveMask16Neon(hits) << (16 * v);
  }
  return mask;
}

constexpr Kernels kNeon = {Isa::kNeon, Eq64Neon, Any64Neon, Pair64Neon};

}  // namespace

const Kernels& NeonKernels() { return kNeon; }

}  // namespace smpx::simd::detail

#endif
