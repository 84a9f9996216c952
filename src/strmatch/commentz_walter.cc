#include "strmatch/commentz_walter.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <queue>

#include "simd/simd.h"

namespace smpx::strmatch {

namespace detail {

ReverseTrie::ReverseTrie(const std::vector<std::string>& patterns) {
  assert(!patterns.empty());
  nodes.emplace_back();  // root
  wmin = patterns[0].size();
  wmax = 0;
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const std::string& p = patterns[pi];
    assert(!p.empty());
    wmin = std::min(wmin, p.size());
    wmax = std::max(wmax, p.size());
    int node = 0;
    for (size_t k = p.size(); k-- > 0;) {  // insert reversed
      unsigned char c = static_cast<unsigned char>(p[k]);
      int child = nodes[node].next[c];
      if (child < 0) {
        child = static_cast<int>(nodes.size());
        nodes[node].next[c] = child;
        Node n;
        n.parent = node;
        n.depth = nodes[node].depth + 1;
        n.in_char = c;
        nodes.push_back(n);
      }
      node = child;
    }
    // Keep the first pattern index on duplicates.
    if (nodes[node].pattern < 0) nodes[node].pattern = static_cast<int>(pi);
  }
}

namespace {

/// Aho-Corasick failure links over the reverse trie: fail(u) is the deepest
/// node whose word is a proper suffix of word(u). Used to compute the
/// Commentz-Walter shift1/shift2 functions ("word(v) is a proper suffix of
/// word(u)" iff v lies on u's failure chain).
std::vector<int> ComputeFailureLinks(const ReverseTrie& trie) {
  std::vector<int> fail(trie.nodes.size(), 0);
  std::queue<int> bfs;
  for (int c = 0; c < 256; ++c) {
    int child = trie.nodes[0].next[c];
    if (child >= 0) bfs.push(child);
  }
  while (!bfs.empty()) {
    int u = bfs.front();
    bfs.pop();
    for (int c = 0; c < 256; ++c) {
      int child = trie.nodes[u].next[c];
      if (child < 0) continue;
      int f = fail[u];
      while (f != 0 && trie.nodes[f].next[c] < 0) f = fail[f];
      int fc = trie.nodes[f].next[c];
      fail[child] = (fc >= 0 && fc != child) ? fc : 0;
      bfs.push(child);
    }
  }
  return fail;
}

}  // namespace
}  // namespace detail

CommentzWalterMatcher::CommentzWalterMatcher(
    std::vector<std::string> patterns)
    : patterns_(std::move(patterns)), trie_(patterns_) {
  const size_t wmin = trie_.wmin;
  const size_t num_nodes = trie_.nodes.size();

  // char table: minimal distance (>= 1) of each character from a pattern
  // end, looking at most wmin characters deep; wmin + 1 when absent.
  char_shift_.fill(wmin + 1);
  for (const std::string& p : patterns_) {
    for (size_t d = 1; d <= std::min(wmin, p.size() - 1); ++d) {
      unsigned char c = static_cast<unsigned char>(p[p.size() - 1 - d]);
      char_shift_[c] = std::min(char_shift_[c], d);
    }
  }

  // shift1 / shift2 via failure chains.
  std::vector<int> fail = detail::ComputeFailureLinks(trie_);
  shift1_.assign(num_nodes, wmin);
  shift1_[0] = 1;
  shift2_.assign(num_nodes, wmin);
  for (size_t u = 1; u < num_nodes; ++u) {
    bool terminal = trie_.nodes[u].pattern >= 0;
    for (int v = fail[u]; v != 0; v = fail[v]) {
      size_t diff = static_cast<size_t>(trie_.nodes[u].depth -
                                        trie_.nodes[v].depth);
      shift1_[v] = std::min(shift1_[v], diff);
      if (terminal) shift2_[v] = std::min(shift2_[v], diff);
    }
    if (terminal) {
      // Root: any terminal at depth d caps shift2(root) at d... but the
      // classical definition keeps shift2(root) = wmin; depths are >= wmin
      // only for the shortest pattern, so min(d) == wmin is already tight.
      shift2_[0] = std::min(shift2_[0], static_cast<size_t>(
                                            trie_.nodes[u].depth));
      shift1_[0] = 1;
    }
  }
  // shift2 is monotone along trie edges: a node inherits its parent's bound.
  for (size_t u = 1; u < num_nodes; ++u) {
    shift2_[u] = std::min(shift2_[u],
                          shift2_[static_cast<size_t>(trie_.nodes[u].parent)]);
  }

  // memchr fast path precomputation (see header).
  lead_ = patterns_[0][0];
  fast_path_ = true;
  for (const std::string& p : patterns_) {
    if (p[0] != lead_ ||
        p.find(lead_, 1) != std::string::npos) {
      fast_path_ = false;
      break;
    }
  }
  if (fast_path_) {
    // Forward trie over the patterns (lead byte included as the root
    // edge). Earlier pattern indices win on duplicates, matching the
    // naive oracle's tie-breaking.
    fwd_.emplace_back();
    for (size_t pi = 0; pi < patterns_.size(); ++pi) {
      int32_t node = 0;
      for (char c : patterns_[pi]) {
        // By value, not by reference: emplace_back below may reallocate
        // fwd_ and a reference into it would dangle.
        int32_t slot = fwd_[static_cast<size_t>(node)]
                           .next[static_cast<unsigned char>(c)];
        if (slot < 0) {
          slot = static_cast<int32_t>(fwd_.size());
          fwd_[static_cast<size_t>(node)]
              .next[static_cast<unsigned char>(c)] = slot;
          fwd_.emplace_back();
        }
        node = slot;
      }
      if (fwd_[static_cast<size_t>(node)].pattern < 0) {
        fwd_[static_cast<size_t>(node)].pattern = static_cast<int32_t>(pi);
      }
    }
  }
}

Match CommentzWalterMatcher::SearchFast(std::string_view text, size_t from,
                                        SearchStats* stats) const {
  const size_t n = text.size();
  const unsigned char* ud =
      reinterpret_cast<const unsigned char*>(text.data());
  const unsigned char lead = static_cast<unsigned char>(lead_);

  // Anchored verification: walk the forward trie; the first terminal is
  // the shortest match at the anchor, i.e. (occurrences cannot overlap)
  // the minimal-end occurrence.
  size_t prev = from;  // one past the previous candidate (shift stats)
  auto verify = [&](size_t s) -> Match {
    if (stats != nullptr) {
      if (s > prev) {
        ++stats->shifts;
        stats->shift_chars += s - prev;
      }
      prev = s + 1;
    }
    int32_t node = 0;
    for (size_t k = s; k < n; ++k) {
      if (stats != nullptr) ++stats->comparisons;
      node = fwd_[static_cast<size_t>(node)].next[ud[k]];
      if (node < 0) return {};
      int32_t pat = fwd_[static_cast<size_t>(node)].pattern;
      if (pat >= 0) return {s, pat};
    }
    return {};
  };

  // Candidate scan: pop every lead-byte hit out of each 64-byte block's
  // SIMD bitmap in ascending text order, so matches and stats are
  // tier-independent.
  const simd::Kernels& kn = simd::Active();
  for (size_t k = from; k < n;) {
    size_t take = n - k;
    uint64_t hits;
    if (take >= simd::kBlock) {
      take = simd::kBlock;
      hits = kn.eq64(ud + k, lead);
    } else {
      hits = simd::EqMaskTail(ud + k, take, lead);
    }
    while (hits != 0) {
      Match m = verify(k + simd::NextSetBit(hits));
      if (m.found()) return m;
      hits = simd::ClearLowestBit(hits);
    }
    k += take;
  }
  if (stats != nullptr && n > prev) {
    ++stats->shifts;
    stats->shift_chars += n - prev;
  }
  return {};
}

Match CommentzWalterMatcher::Search(std::string_view text, size_t from,
                                    SearchStats* stats) const {
  const size_t n = text.size();
  const size_t wmin = trie_.wmin;
  if (wmin == 0 || from > n || n - from < wmin) return {};
  if (fast_path_ && skip_loops_) return SearchFast(text, from, stats);

  size_t i = from + wmin - 1;  // window end position in text
  while (i < n) {
    int v = 0;
    size_t j = 0;  // characters matched walking right-to-left
    Match best;    // deepest admissible terminal on the walk
    for (;;) {
      if (j > i) break;  // reached text start
      unsigned char c = static_cast<unsigned char>(text[i - j]);
      if (stats != nullptr) ++stats->comparisons;
      int child = trie_.Child(v, c);
      if (child < 0) break;
      v = child;
      ++j;
      int pat = trie_.nodes[v].pattern;
      if (pat >= 0) {
        size_t start = i - j + 1;
        if (start >= from) best = Match{start, pat};
      }
    }
    if (best.found()) return best;

    // Shift: min(max(shift1(v), char(c) - j - 1), shift2(v)). shift1 and the
    // bad-character rule give consistency lower bounds; shift2 caps the
    // shift so that no full-pattern end position can be stepped over.
    size_t cs = 0;  // bad-character contribution; 0 when text start reached
    if (j <= i) {
      unsigned char c = static_cast<unsigned char>(text[i - j]);
      size_t ch = char_shift_[c];
      cs = ch > j + 1 ? ch - j - 1 : 0;
    }
    size_t shift = std::min(std::max(shift1_[static_cast<size_t>(v)], cs),
                            shift2_[static_cast<size_t>(v)]);
    if (shift == 0) shift = 1;
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

SetHorspoolMatcher::SetHorspoolMatcher(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)), trie_(patterns_) {
  const size_t wmin = trie_.wmin;
  shift_.fill(wmin);
  for (const std::string& p : patterns_) {
    for (size_t d = 1; d <= std::min(wmin - 1, p.size() - 1); ++d) {
      unsigned char c = static_cast<unsigned char>(p[p.size() - 1 - d]);
      shift_[c] = std::min(shift_[c], d);
    }
  }
}

Match SetHorspoolMatcher::Search(std::string_view text, size_t from,
                                 SearchStats* stats) const {
  const size_t n = text.size();
  const size_t wmin = trie_.wmin;
  if (wmin == 0 || from > n || n - from < wmin) return {};

  size_t i = from + wmin - 1;
  while (i < n) {
    unsigned char last = static_cast<unsigned char>(text[i]);
    int v = 0;
    size_t j = 0;
    Match best;
    for (;;) {
      if (j > i) break;
      unsigned char c = static_cast<unsigned char>(text[i - j]);
      if (stats != nullptr) ++stats->comparisons;
      int child = trie_.Child(v, c);
      if (child < 0) break;
      v = child;
      ++j;
      int pat = trie_.nodes[v].pattern;
      if (pat >= 0) {
        size_t start = i - j + 1;
        if (start >= from) best = Match{start, pat};
      }
    }
    if (best.found()) return best;
    size_t shift = shift_[last];
    if (shift == 0) shift = 1;
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

}  // namespace smpx::strmatch
