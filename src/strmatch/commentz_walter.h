// Commentz-Walter multi-keyword search [13]: a Boyer-Moore-style skip
// algorithm over a trie of reversed patterns. Used by the prefilter whenever
// a frontier vocabulary holds more than one keyword. Also provides the
// Set-Horspool simplification used as an ablation comparator.

#ifndef SMPX_STRMATCH_COMMENTZ_WALTER_H_
#define SMPX_STRMATCH_COMMENTZ_WALTER_H_

#include <array>
#include <string>
#include <vector>

#include "strmatch/matcher.h"

namespace smpx::strmatch {

namespace detail {

/// Trie over the *reversed* patterns; node 0 is the root. Matching walks the
/// text right-to-left from a window end, so trie depth equals distance from
/// the occurrence end.
struct ReverseTrie {
  struct Node {
    std::array<int, 256> next;  // -1 when absent
    int parent = -1;
    int depth = 0;
    int pattern = -1;  // index of the pattern ending here, -1 otherwise
    unsigned char in_char = 0;

    Node() { next.fill(-1); }
  };

  explicit ReverseTrie(const std::vector<std::string>& patterns);

  int Child(int node, unsigned char c) const { return nodes[node].next[c]; }

  std::vector<Node> nodes;
  size_t wmin = 0;  // shortest pattern length
  size_t wmax = 0;  // longest pattern length
};

}  // namespace detail

/// Commentz-Walter algorithm B: combines per-character shifts with the
/// trie-structural shift1/shift2 functions.
class CommentzWalterMatcher : public Matcher {
 public:
  /// All patterns must be non-empty; at least one pattern.
  explicit CommentzWalterMatcher(std::vector<std::string> patterns);

  Match Search(std::string_view text, size_t from,
               SearchStats* stats) const override;

  size_t min_length() const override { return trie_.wmin; }
  size_t max_length() const override { return trie_.wmax; }
  const std::vector<std::string>& patterns() const override {
    return patterns_;
  }
  std::string_view name() const override { return "CW"; }
  void set_skip_loops(bool enabled) override { skip_loops_ = enabled; }

 private:
  Match SearchFast(std::string_view text, size_t from,
                   SearchStats* stats) const;

  std::vector<std::string> patterns_;
  detail::ReverseTrie trie_;
  std::array<size_t, 256> char_shift_;  // min end-distance of c, else wmin+1
  std::vector<size_t> shift1_;          // per trie node
  std::vector<size_t> shift2_;          // per trie node

  // memchr fast path: usable when every pattern starts with the same byte
  // and that byte never recurs inside any pattern (always true for the
  // prefilter's "<t"/"</t" vocabularies). Occurrences then cannot overlap,
  // so a memchr-for-the-lead candidate scan with anchored verification is
  // exact under the minimal-end contract. Verification walks a *forward*
  // trie over the patterns (one node lookup per text byte, regardless of
  // the vocabulary size); the first terminal reached is the shortest match
  // at the anchor, i.e. the minimal-end occurrence.
  struct ForwardTrieNode {
    std::array<int32_t, 256> next;  // -1 when absent
    int32_t pattern = -1;           // pattern ending exactly here

    ForwardTrieNode() { next.fill(-1); }
  };

  bool fast_path_ = false;
  bool skip_loops_ = true;  // candidate-scan fast path
  char lead_ = 0;
  std::vector<ForwardTrieNode> fwd_;  // rooted at fwd_[0]'s lead child
};

/// Set-Horspool: same reversed trie, but shifts only by the bad-character
/// rule keyed on the window-end character.
class SetHorspoolMatcher : public Matcher {
 public:
  explicit SetHorspoolMatcher(std::vector<std::string> patterns);

  Match Search(std::string_view text, size_t from,
               SearchStats* stats) const override;

  size_t min_length() const override { return trie_.wmin; }
  size_t max_length() const override { return trie_.wmax; }
  const std::vector<std::string>& patterns() const override {
    return patterns_;
  }
  std::string_view name() const override { return "SetHorspool"; }

 private:
  std::vector<std::string> patterns_;
  detail::ReverseTrie trie_;
  std::array<size_t, 256> shift_;
};

}  // namespace smpx::strmatch

#endif  // SMPX_STRMATCH_COMMENTZ_WALTER_H_
