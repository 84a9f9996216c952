// AVX2 tier: 32-byte vector classification; two vector compares cover a
// 64-byte block. Compiled with -mavx2 (CMake per-file flags); only ever
// called after the dispatcher verified AVX2 support at runtime.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "simd/kernels.h"

// Normally this TU is compiled with -mavx2 (CMake per-file flags); if the
// flag is unavailable, fall back to per-function target attributes so the
// intrinsics still compile.
#if defined(__AVX2__)
#define SMPX_TARGET_AVX2
#else
#define SMPX_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace smpx::simd::detail {
namespace {

SMPX_TARGET_AVX2 inline uint64_t MoveMask32(__m256i eq) {
  return static_cast<uint64_t>(
      static_cast<uint32_t>(_mm256_movemask_epi8(eq)));
}

SMPX_TARGET_AVX2 uint64_t Eq64Avx2(const unsigned char* p, unsigned char c) {
  const __m256i needle = _mm256_set1_epi8(static_cast<char>(c));
  __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  return MoveMask32(_mm256_cmpeq_epi8(lo, needle)) |
         (MoveMask32(_mm256_cmpeq_epi8(hi, needle)) << 32);
}

SMPX_TARGET_AVX2 uint64_t Any64Avx2(const unsigned char* p,
                                    const ByteSet& set) {
  __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  __m256i hits_lo = _mm256_setzero_si256();
  __m256i hits_hi = _mm256_setzero_si256();
  for (unsigned j = 0; j < set.n; ++j) {
    const __m256i needle = _mm256_set1_epi8(static_cast<char>(set.chars[j]));
    hits_lo = _mm256_or_si256(hits_lo, _mm256_cmpeq_epi8(lo, needle));
    hits_hi = _mm256_or_si256(hits_hi, _mm256_cmpeq_epi8(hi, needle));
  }
  return MoveMask32(hits_lo) | (MoveMask32(hits_hi) << 32);
}

SMPX_TARGET_AVX2 uint64_t Pair64Avx2(const unsigned char* p, size_t delta,
                                     unsigned char a, unsigned char b) {
  const __m256i na = _mm256_set1_epi8(static_cast<char>(a));
  const __m256i nb = _mm256_set1_epi8(static_cast<char>(b));
  __m256i lo0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i lo1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  __m256i hi0 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + delta));
  __m256i hi1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + delta + 32));
  uint64_t mask =
      MoveMask32(_mm256_and_si256(_mm256_cmpeq_epi8(lo0, na),
                                  _mm256_cmpeq_epi8(hi0, nb))) |
      (MoveMask32(_mm256_and_si256(_mm256_cmpeq_epi8(lo1, na),
                                   _mm256_cmpeq_epi8(hi1, nb)))
       << 32);
  return mask;
}

constexpr Kernels kAvx2 = {Isa::kAvx2, Eq64Avx2, Any64Avx2, Pair64Avx2};

}  // namespace

const Kernels& Avx2Kernels() { return kAvx2; }

}  // namespace smpx::simd::detail

#endif
