#include "strmatch/boyer_moore.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "simd/simd.h"

namespace smpx::strmatch {
namespace {

// Computes, for each position i, the length of the longest suffix of the
// pattern that ends at i (the classical "suffixes" array of the good-suffix
// preprocessing). Signed arithmetic follows the textbook formulation.
std::vector<int> ComputeSuffixes(const std::string& p) {
  const int m = static_cast<int>(p.size());
  std::vector<int> suf(m, 0);
  suf[m - 1] = m;
  int g = m - 1;
  int f = m - 1;
  for (int i = m - 2; i >= 0; --i) {
    if (i > g && suf[i + m - 1 - f] < i - g) {
      suf[i] = suf[i + m - 1 - f];
    } else {
      if (i < g) g = i;
      f = i;
      while (g >= 0 && p[g] == p[g + m - 1 - f]) --g;
      suf[i] = f - g;
    }
  }
  return suf;
}

/// Rough rarity ranking of bytes in XML-shaped text (markup + English
/// prose); smaller = rarer. Used to pick the memchr probe byte: probing the
/// rarest pattern byte minimizes candidate verifications. For the
/// prefilter's "<t"/"</t" keywords this always selects '<'.
int XmlByteRarity(unsigned char c) {
  switch (c) {
    case '<':
      return 0;
    case '>':
      return 10;
    case '/':
      return 15;
    case '=':
    case '"':
    case '\'':
      return 25;
    default:
      break;
  }
  if (c >= 'A' && c <= 'Z') return 30;
  if (c >= '0' && c <= '9') return 40;
  switch (c) {
    case 'j':
    case 'k':
    case 'q':
    case 'x':
    case 'z':
      return 45;
    case 'b':
    case 'g':
    case 'v':
    case 'w':
      return 55;
    case 'c':
    case 'd':
    case 'f':
    case 'h':
    case 'l':
    case 'm':
    case 'p':
    case 'u':
    case 'y':
      return 65;
    case 'a':
    case 'e':
    case 'i':
    case 'n':
    case 'o':
    case 'r':
    case 's':
    case 't':
      return 80;
    case ' ':
    case '\t':
    case '\n':
    case '\r':
      return 90;
    default:
      return 35;  // other punctuation / non-ASCII
  }
}

}  // namespace

BoyerMooreMatcher::BoyerMooreMatcher(std::string pattern) {
  assert(!pattern.empty());
  patterns_.push_back(std::move(pattern));
  const std::string& p = patterns_[0];
  const size_t m = p.size();

  bad_char_.fill(-1);
  for (size_t i = 0; i < m; ++i) {
    bad_char_[static_cast<unsigned char>(p[i])] = static_cast<int>(i);
  }

  // Strong good-suffix shift table (textbook preBmGs).
  const int im = static_cast<int>(m);
  good_suffix_.assign(m, m);
  std::vector<int> suf = ComputeSuffixes(p);
  int j = 0;
  for (int i = im - 1; i >= 0; --i) {
    // Case 2: a prefix of p equals the matched suffix.
    if (suf[i] == i + 1) {
      for (; j < im - 1 - i; ++j) {
        if (good_suffix_[j] == m) good_suffix_[j] = im - 1 - i;
      }
    }
  }
  for (int i = 0; i <= im - 2; ++i) {
    // Case 1: the matched suffix reoccurs elsewhere in the pattern.
    good_suffix_[im - 1 - suf[i]] = im - 1 - i;
  }

  // Probe byte for the skip loop: the rarest byte of the pattern
  // (ties go to the rightmost occurrence).
  for (size_t i = 1; i < m; ++i) {
    if (XmlByteRarity(static_cast<unsigned char>(p[i])) <=
        XmlByteRarity(static_cast<unsigned char>(p[probe_pos_]))) {
      probe_pos_ = i;
    }
  }
  // Second probe for the pair scan (long patterns only): the rarest byte at
  // any other position. Requiring both bytes to match multiplies the two
  // densities, which is what keeps verify counts low on text-heavy input
  // where even the rarest single byte still occurs every few hundred
  // characters.
  if (m >= 4) {
    pair_probe_ = true;
    probe2_pos_ = probe_pos_ == 0 ? 1 : 0;
    for (size_t i = 1; i < m; ++i) {
      if (i == probe_pos_) continue;
      if (XmlByteRarity(static_cast<unsigned char>(p[i])) <=
          XmlByteRarity(static_cast<unsigned char>(p[probe2_pos_]))) {
        probe2_pos_ = i;
      }
    }
  }
}

Match BoyerMooreMatcher::Search(std::string_view text, size_t from,
                                SearchStats* stats) const {
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  const size_t n = text.size();
  if (from > n || n - from < m) return {};
  if (skip_loops_) return SearchSkip(text, from, stats);

  size_t i = from;  // current alignment: pattern start at text position i
  while (i + m <= n) {
    size_t j = m;  // compare right to left; j is 1 + index to compare
    while (j > 0) {
      if (stats != nullptr) ++stats->comparisons;
      if (text[i + j - 1] != p[j - 1]) break;
      --j;
    }
    if (j == 0) return {i, 0};
    const size_t jm1 = j - 1;
    int bc = bad_char_[static_cast<unsigned char>(text[i + jm1])];
    ptrdiff_t bad_shift = static_cast<ptrdiff_t>(jm1) - bc;
    size_t shift = std::max<ptrdiff_t>(
        static_cast<ptrdiff_t>(good_suffix_[jm1]), bad_shift);
    if (shift == 0) shift = 1;  // defensive; strong tables never yield 0
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

Match BoyerMooreMatcher::SearchSkip(std::string_view text, size_t from,
                                    SearchStats* stats) const {
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  const size_t n = text.size();
  const char* d = text.data();
  const unsigned char* ud = reinterpret_cast<const unsigned char*>(d);

  // Skip loop: no occurrence can align unless its probe byte (the rarest
  // pattern byte, '<' for tag keywords) matches, so only probe-byte hits
  // become candidate alignments. The hits are popped block-at-a-time from
  // the dispatched SIMD bitmaps (simd/simd.h) in ascending text order on
  // every ISA tier, so matches AND stats are tier-independent. Candidates
  // below the BM-shift frontier `i` are dropped without a verify.
  const size_t kp = probe_pos_;
  const unsigned char probe = static_cast<unsigned char>(p[kp]);
  size_t i = from;  // minimal admissible alignment (the shift frontier)

  // Right-to-left verify at alignment `a`; advances `i` past `a` via the
  // classical bad-character/good-suffix shift on mismatch.
  auto verify = [&](size_t a) -> bool {
    if (stats != nullptr && a > i) {
      ++stats->shifts;
      stats->shift_chars += a - i;
    }
    i = a;
    size_t j = m;  // compare right to left; j is 1 + index to compare
    while (j > 0) {
      if (stats != nullptr) ++stats->comparisons;
      if (d[a + j - 1] != p[j - 1]) break;
      --j;
    }
    if (j == 0) return true;
    const size_t jm1 = j - 1;
    int bc = bad_char_[static_cast<unsigned char>(d[a + jm1])];
    ptrdiff_t bad_shift = static_cast<ptrdiff_t>(jm1) - bc;
    size_t shift = std::max<ptrdiff_t>(
        static_cast<ptrdiff_t>(good_suffix_[jm1]), bad_shift);
    if (shift == 0) shift = 1;  // defensive; strong tables never yield 0
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
    return false;
  };

  const simd::Kernels& kn = simd::Active();
  if (pair_probe_) {
    // Two-byte pair probe: a candidate alignment survives only when BOTH
    // probe bytes match. The full-block branch is in-bounds: with
    // lo/hi <= m-1, k + 64 <= scan_end implies
    // k + delta + 64 <= n - m + hi + 1 <= n.
    const size_t lo = std::min(kp, probe2_pos_);
    const size_t hi = std::max(kp, probe2_pos_);
    const unsigned char b_lo = static_cast<unsigned char>(p[lo]);
    const unsigned char b_hi = static_cast<unsigned char>(p[hi]);
    const size_t delta = hi - lo;
    const size_t scan_end = n - m + lo + 1;
    size_t k = from + lo;
    while (k < scan_end) {
      size_t take = scan_end - k;
      uint64_t hits;
      if (take >= simd::kBlock) {
        take = simd::kBlock;
        hits = kn.pair64(ud + k, delta, b_lo, b_hi);
      } else {
        hits = simd::PairMaskTail(ud + k, n - k, delta, b_lo, b_hi) &
               simd::TakeMask(take);
      }
      while (hits != 0) {
        size_t a = k + simd::NextSetBit(hits) - lo;
        hits = simd::ClearLowestBit(hits);
        if (a < i) continue;  // below the shift frontier
        if (verify(a)) return {a, 0};
      }
      k += take;
    }
  } else {
    // Scan probe positions s in [from + kp, n - m + kp]; alignment
    // a = s - kp.
    const size_t scan_end = n - m + kp + 1;
    size_t k = from + kp;
    while (k < scan_end) {
      size_t take = scan_end - k;
      uint64_t hits;
      if (take >= simd::kBlock) {
        take = simd::kBlock;
        hits = kn.eq64(ud + k, probe);
      } else {
        hits = simd::EqMaskTail(ud + k, take, probe);
      }
      while (hits != 0) {
        size_t a = k + simd::NextSetBit(hits) - kp;
        hits = simd::ClearLowestBit(hits);
        if (a < i) continue;  // below the shift frontier
        if (verify(a)) return {a, 0};
      }
      k += take;
    }
  }
  if (stats != nullptr && n - m + 1 > i) {
    ++stats->shifts;
    stats->shift_chars += n - m + 1 - i;
  }
  return {};
}

HorspoolMatcher::HorspoolMatcher(std::string pattern) {
  assert(!pattern.empty());
  patterns_.push_back(std::move(pattern));
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  shift_.fill(m);
  for (size_t i = 0; i + 1 < m; ++i) {
    shift_[static_cast<unsigned char>(p[i])] = m - 1 - i;
  }
}

Match HorspoolMatcher::Search(std::string_view text, size_t from,
                              SearchStats* stats) const {
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  const size_t n = text.size();
  if (from > n || n - from < m) return {};

  size_t i = from;
  while (i + m <= n) {
    size_t j = m;
    while (j > 0) {
      if (stats != nullptr) ++stats->comparisons;
      if (text[i + j - 1] != p[j - 1]) break;
      --j;
    }
    if (j == 0) return {i, 0};
    size_t shift = shift_[static_cast<unsigned char>(text[i + m - 1])];
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

}  // namespace smpx::strmatch
