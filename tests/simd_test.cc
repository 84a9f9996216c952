// Differential tests for the SIMD structural-classification layer
// (src/simd/): every available dispatch tier must be bit-identical to the
// scalar oracle for every classifier, at every alignment within a 64-byte
// block, for lengths around every boundary the kernels care about, and the
// tail paths must never read past the end of the input (verified with
// guard-page allocations).

#include "simd/simd.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace smpx::simd {
namespace {

// Deterministic byte soup dense in the structural bytes the prefilter
// classifies, so bitmaps are non-trivial at every offset.
std::vector<unsigned char> MakeCorpus(size_t n, uint32_t seed) {
  static constexpr char kAlphabet[] = "<>\"'-]?ab <<>>x-]'\"?";
  std::mt19937 rng(seed);
  std::vector<unsigned char> buf(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<unsigned char>(
        kAlphabet[rng() % (sizeof(kAlphabet) - 1)]);
  }
  return buf;
}

uint64_t NaiveEq(const unsigned char* p, size_t len, unsigned char c) {
  uint64_t m = 0;
  for (size_t i = 0; i < len && i < 64; ++i) {
    if (p[i] == c) m |= uint64_t{1} << i;
  }
  return m;
}

uint64_t NaiveAny(const unsigned char* p, size_t len, const ByteSet& set) {
  uint64_t m = 0;
  for (size_t i = 0; i < len && i < 64; ++i) {
    for (unsigned j = 0; j < set.n; ++j) {
      if (p[i] == set.chars[j]) m |= uint64_t{1} << i;
    }
  }
  return m;
}

/// RAII restore of the dispatch tier around a test body.
class IsaGuard {
 public:
  IsaGuard() : saved_(ActiveIsa()) {}
  ~IsaGuard() { SetIsa(saved_); }

 private:
  Isa saved_;
};

/// Maps `pages + 1` pages and revokes all access to the last one, returning
/// a writable region whose end abuts an unreadable page. Any kernel or tail
/// helper that reads one byte past the permitted length faults.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(size_t pages = 1) {
    page_ = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    size_ = page_ * pages;
    base_ = static_cast<unsigned char*>(
        mmap(nullptr, size_ + page_, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    EXPECT_NE(base_, MAP_FAILED);
    EXPECT_EQ(mprotect(base_ + size_, page_, PROT_NONE), 0);
  }
  ~GuardedBuffer() { munmap(base_, size_ + page_); }

  /// A pointer `len` bytes before the guard page.
  unsigned char* EndMinus(size_t len) { return base_ + size_ - len; }
  size_t size() const { return size_; }

 private:
  unsigned char* base_ = nullptr;
  size_t size_ = 0;
  size_t page_ = 0;
};

TEST(SimdDispatchTest, ScalarAndSwarAlwaysAvailable) {
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(Isa::kSwar));
  std::vector<Isa> isas = AvailableIsas();
  ASSERT_GE(isas.size(), 2u);
  EXPECT_EQ(isas[0], Isa::kScalar);
  EXPECT_EQ(isas[1], Isa::kSwar);
}

TEST(SimdDispatchTest, SetIsaInstallsRequestedTierWhenAvailable) {
  IsaGuard guard;
  for (Isa isa : AvailableIsas()) {
    EXPECT_EQ(SetIsa(isa), isa);
    EXPECT_EQ(ActiveIsa(), isa);
  }
}

TEST(SimdDispatchTest, SetIsaFallsBackAtOrBelow) {
  IsaGuard guard;
  // Whatever the host, requesting the top tier must install an available
  // tier at or below it, never something above.
  Isa got = SetIsa(Isa::kNeon);
  EXPECT_TRUE(IsaAvailable(got));
  EXPECT_LE(static_cast<int>(got), static_cast<int>(Isa::kNeon));
  got = SetIsa(Isa::kScalar);
  EXPECT_EQ(got, Isa::kScalar);
}

TEST(SimdDispatchTest, ParseIsaRoundTrips) {
  for (Isa isa : {Isa::kScalar, Isa::kSwar, Isa::kSse2, Isa::kSse42,
                  Isa::kAvx2, Isa::kNeon}) {
    Isa parsed;
    ASSERT_TRUE(ParseIsa(IsaName(isa), &parsed)) << IsaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed;
  EXPECT_FALSE(ParseIsa("avx512", &parsed));
  EXPECT_FALSE(ParseIsa("", &parsed));
}

// Every tier's full-block kernels agree with the per-byte oracle at every
// alignment within a block (the corpus is larger than alignment + 64 + the
// largest pair delta, so all loads are in-bounds).
TEST(SimdKernelTest, FullBlockKernelsMatchOracleAtEveryAlignment) {
  IsaGuard guard;
  const std::vector<unsigned char> corpus = MakeCorpus(64 + 64 + 8, 1);
  static constexpr ByteSet kSet("<>\"'-]?");
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    const Kernels& k = Active();
    for (size_t align = 0; align < 64; ++align) {
      const unsigned char* p = corpus.data() + align;
      for (unsigned char c : {'<', '>', '"', '\'', '-', ']', '?', 'z'}) {
        EXPECT_EQ(k.eq64(p, c), NaiveEq(p, 64, c))
            << IsaName(isa) << " eq64 align=" << align << " c=" << c;
      }
      EXPECT_EQ(k.any64(p, kSet), NaiveAny(p, 64, kSet))
          << IsaName(isa) << " any64 align=" << align;
      for (size_t delta : {1u, 2u, 7u}) {
        uint64_t want = 0;
        for (size_t i = 0; i < 64; ++i) {
          if (p[i] == '<' && p[i + delta] == '>') want |= uint64_t{1} << i;
        }
        EXPECT_EQ(k.pair64(p, delta, '<', '>'), want)
            << IsaName(isa) << " pair64 align=" << align
            << " delta=" << delta;
      }
    }
  }
}

// Tail helpers agree with the oracle for every length 0..130 (covering the
// 0, sub-word, sub-block, exactly-64, and beyond-64 regimes) at mixed
// alignments, on every tier.
TEST(SimdKernelTest, TailHelpersMatchOracleForAllShortLengths) {
  IsaGuard guard;
  const std::vector<unsigned char> corpus = MakeCorpus(256, 2);
  static constexpr ByteSet kSet("[]>\"'");
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    for (size_t len = 0; len <= 130; ++len) {
      for (size_t align : {0u, 1u, 7u, 31u, 63u}) {
        const unsigned char* p = corpus.data() + align;
        EXPECT_EQ(EqMaskTail(p, len, '<'), NaiveEq(p, len, '<'))
            << IsaName(isa) << " len=" << len << " align=" << align;
        EXPECT_EQ(AnyMaskTail(p, len, kSet), NaiveAny(p, len, kSet))
            << IsaName(isa) << " len=" << len << " align=" << align;
        uint64_t want = 0;
        if (len > 2) {
          for (size_t i = 0; i < len - 2 && i < 64; ++i) {
            if (p[i] == '-' && p[i + 2] == '>') want |= uint64_t{1} << i;
          }
        }
        EXPECT_EQ(PairMaskTail(p, len, 2, '-', '>'), want)
            << IsaName(isa) << " len=" << len << " align=" << align;
      }
    }
  }
}

// The tail paths must not read past `len`: run them flush against a
// PROT_NONE page for every length 0..129. A single over-read segfaults.
TEST(SimdKernelTest, TailHelpersNeverReadPastEndGuardPage) {
  IsaGuard guard;
  GuardedBuffer gb;
  static constexpr ByteSet kSet(">\"'");
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    for (size_t len = 0; len <= 129; ++len) {
      unsigned char* p = gb.EndMinus(len);
      for (size_t i = 0; i < len; ++i) {
        p[i] = static_cast<unsigned char>("<x>'"[i % 4]);
      }
      EXPECT_EQ(EqMaskTail(p, len, '<'), NaiveEq(p, len, '<'))
          << IsaName(isa) << " len=" << len;
      EXPECT_EQ(AnyMaskTail(p, len, kSet), NaiveAny(p, len, kSet))
          << IsaName(isa) << " len=" << len;
      (void)PairMaskTail(p, len, 2, '<', '>');
      // The whole-span helpers route their last partial block through the
      // same tail staging; exercise them against the guard too.
      const char* d = reinterpret_cast<const char*>(p);
      (void)FindByte(d, len, 'q');
      (void)FindAny(d, len, kSet);
      (void)FindPattern(d, len, "-->");
      MaskScanner ms(d, len, '<');
      for (size_t q = ms.Next(0); q < len; q = ms.Next(q + 1)) {
      }
    }
  }
}

// FindByte/FindAny/FindPattern agree with straightforward scalar searches
// on random soup, on every tier, across lengths spanning block boundaries.
TEST(SimdFindTest, FindHelpersMatchNaiveSearches) {
  IsaGuard guard;
  const std::vector<unsigned char> corpus = MakeCorpus(4096, 3);
  const char* d = reinterpret_cast<const char*>(corpus.data());
  static constexpr ByteSet kSet("[]>\"'");
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    for (size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
      // FindByte vs memchr.
      const void* want = std::memchr(d, '<', n);
      size_t got = FindByte(d, n, '<');
      EXPECT_EQ(got, want == nullptr
                         ? n
                         : static_cast<size_t>(
                               static_cast<const char*>(want) - d))
          << IsaName(isa) << " n=" << n;
      // FindAny vs a scalar loop.
      size_t naive = n;
      for (size_t i = 0; i < n; ++i) {
        if (std::memchr("[]>\"'", d[i], 5) != nullptr) {
          naive = i;
          break;
        }
      }
      EXPECT_EQ(FindAny(d, n, kSet), naive) << IsaName(isa) << " n=" << n;
      // FindPattern vs string_view::find for 2- and 3-byte terms.
      for (std::string_view term : {std::string_view("?>"),
                                    std::string_view("-->"),
                                    std::string_view("]]>")}) {
        size_t ref = std::string_view(d, n).find(term);
        if (ref == std::string_view::npos) ref = n;
        EXPECT_EQ(FindPattern(d, n, term), ref)
            << IsaName(isa) << " n=" << n << " term=" << term;
      }
    }
  }
}

// MaskScanner enumerates exactly the memchr hit sequence, including
// re-query patterns (repeat Next at the same position, jumps forward).
TEST(SimdFindTest, MaskScannerMatchesMemchrEnumeration) {
  IsaGuard guard;
  const std::vector<unsigned char> corpus = MakeCorpus(2048, 4);
  const char* d = reinterpret_cast<const char*>(corpus.data());
  const size_t n = corpus.size();
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    MaskScanner ms(d, n, '<');
    size_t pos = 0;
    while (true) {
      const void* hit = std::memchr(d + pos, '<', n - pos);
      size_t want =
          hit == nullptr
              ? n
              : static_cast<size_t>(static_cast<const char*>(hit) - d);
      EXPECT_EQ(ms.Next(pos), want) << IsaName(isa) << " pos=" << pos;
      // Re-query at the same position must be stable.
      EXPECT_EQ(ms.Next(pos), want) << IsaName(isa);
      if (want == n) break;
      // Alternate between stepping one past the hit and jumping ahead, to
      // exercise both the cached-block and fresh-block paths.
      pos = (want % 3 == 0) ? want + 17 : want + 1;
      if (pos > n) break;
    }
    EXPECT_EQ(ms.Next(n), n) << IsaName(isa);
    EXPECT_EQ(ms.Next(n + 100), n) << IsaName(isa);
  }
}

// Fuzz: all tiers produce bitwise-identical masks on random inputs at
// random alignments/lengths, with scalar as the oracle.
TEST(SimdKernelTest, FuzzAllTiersAgainstScalar) {
  IsaGuard guard;
  std::mt19937 rng(99);
  const std::vector<Isa> isas = AvailableIsas();
  for (int round = 0; round < 200; ++round) {
    // 63 (max align) + 7 (max delta) + 130 (max tail len) < 256, so every
    // tail helper's staged read stays inside the corpus.
    const std::vector<unsigned char> corpus =
        MakeCorpus(256, 1000 + static_cast<uint32_t>(round));
    const size_t align = rng() % 64;
    const size_t len = rng() % 130;
    const unsigned char c =
        static_cast<unsigned char>("<>\"'-]?x"[rng() % 8]);
    const size_t delta = 1 + rng() % 7;
    const unsigned char* p = corpus.data() + align;
    static constexpr ByteSet kSet("<>\"'-]?");

    SetIsa(Isa::kScalar);
    const uint64_t ref_full_eq = Active().eq64(p, c);
    const uint64_t ref_full_any = Active().any64(p, kSet);
    const uint64_t ref_full_pair = Active().pair64(p, delta, c, '>');
    const uint64_t ref_tail_eq = EqMaskTail(p, len, c);
    const uint64_t ref_tail_any = AnyMaskTail(p, len, kSet);
    const uint64_t ref_tail_pair = PairMaskTail(p, len, delta, c, '>');

    for (Isa isa : isas) {
      SetIsa(isa);
      EXPECT_EQ(Active().eq64(p, c), ref_full_eq)
          << IsaName(isa) << " round=" << round;
      EXPECT_EQ(Active().any64(p, kSet), ref_full_any)
          << IsaName(isa) << " round=" << round;
      EXPECT_EQ(Active().pair64(p, delta, c, '>'), ref_full_pair)
          << IsaName(isa) << " round=" << round;
      EXPECT_EQ(EqMaskTail(p, len, c), ref_tail_eq)
          << IsaName(isa) << " round=" << round;
      EXPECT_EQ(AnyMaskTail(p, len, kSet), ref_tail_any)
          << IsaName(isa) << " round=" << round;
      EXPECT_EQ(PairMaskTail(p, len, delta, c, '>'), ref_tail_pair)
          << IsaName(isa) << " round=" << round;
    }
  }
}

// An unrecognized SMPX_FORCE_ISA value must abort loudly at dispatch init
// instead of silently running a default tier.
TEST(SimdDispatchDeathTest, UnrecognizedForceIsaAbortsLoudly) {
  EXPECT_DEATH(
      {
        setenv("SMPX_FORCE_ISA", "avx9000", 1);
        detail::Init();
      },
      "unrecognized SMPX_FORCE_ISA");
}

}  // namespace
}  // namespace smpx::simd
