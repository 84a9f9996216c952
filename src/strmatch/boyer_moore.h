// Boyer-Moore single-keyword search [11] with both the bad-character and
// (strong) good-suffix heuristics, as used by the prefilter whenever a
// frontier vocabulary contains exactly one keyword.

#ifndef SMPX_STRMATCH_BOYER_MOORE_H_
#define SMPX_STRMATCH_BOYER_MOORE_H_

#include <array>
#include <string>
#include <vector>

#include "strmatch/matcher.h"

namespace smpx::strmatch {

class BoyerMooreMatcher : public Matcher {
 public:
  /// `pattern` must be non-empty.
  explicit BoyerMooreMatcher(std::string pattern);

  Match Search(std::string_view text, size_t from,
               SearchStats* stats) const override;

  size_t min_length() const override { return patterns_[0].size(); }
  size_t max_length() const override { return patterns_[0].size(); }
  const std::vector<std::string>& patterns() const override {
    return patterns_;
  }
  std::string_view name() const override { return "BM"; }
  void set_skip_loops(bool enabled) override { skip_loops_ = enabled; }

 private:
  Match SearchSkip(std::string_view text, size_t from,
                   SearchStats* stats) const;

  std::vector<std::string> patterns_;       // exactly one element
  std::array<int, 256> bad_char_;           // last occurrence index, -1 if none
  std::vector<size_t> good_suffix_;         // shift for mismatch at index j
  bool skip_loops_ = true;                  // bitmap rare-byte probe
  size_t probe_pos_ = 0;                    // offset of the rarest byte
  size_t probe2_pos_ = 0;                   // offset of the 2nd-rarest byte
  bool pair_probe_ = false;                 // use the two-byte pair probe
};

/// Horspool simplification (bad-character rule keyed on the window's last
/// character only); ablation comparator.
class HorspoolMatcher : public Matcher {
 public:
  explicit HorspoolMatcher(std::string pattern);

  Match Search(std::string_view text, size_t from,
               SearchStats* stats) const override;

  size_t min_length() const override { return patterns_[0].size(); }
  size_t max_length() const override { return patterns_[0].size(); }
  const std::vector<std::string>& patterns() const override {
    return patterns_;
  }
  std::string_view name() const override { return "Horspool"; }

 private:
  std::vector<std::string> patterns_;
  std::array<size_t, 256> shift_;
};

}  // namespace smpx::strmatch

#endif  // SMPX_STRMATCH_BOYER_MOORE_H_
