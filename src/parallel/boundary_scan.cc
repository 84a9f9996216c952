#include "parallel/boundary_scan.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "common/strings.h"
#include "simd/simd.h"
#include "strmatch/matcher.h"

namespace smpx::parallel {
namespace {

/// Structural scan primitives over a resident window of one document.
/// Positions are absolute document offsets; every primitive returns size()
/// when the sought byte/pattern is absent -- or on a read error, which
/// sticks in status(). With `kRolling` false the window is the whole
/// contiguous document: it never moves, nothing is copied, and residency
/// checks reduce to the document bounds (a run-time window check in every
/// primitive cost the sharding scan ~10%). With `kRolling` true it is a
/// buffer of `chunk_bytes` over an InputSource, refilled on demand. The
/// '<' search is bitmap-driven (one classification per 64-byte block), the
/// construct skips use the dispatched per-call kernels. Not thread-safe:
/// region workers each build their own.
template <bool kRolling>
class StructScanner {
 public:
  explicit StructScanner(std::string_view doc) : size_(doc.size()) {
    static_assert(!kRolling, "a contiguous document needs no refills");
    SetWindow(0, doc);
  }

  StructScanner(const InputSource& src, uint64_t chunk_bytes)
      : src_(&src),
        size_(src.size()),
        chunk_(static_cast<size_t>(
            std::max(chunk_bytes, kMinScanChunkBytes))) {
    static_assert(kRolling, "contiguous sources are scanned in place");
  }

  uint64_t size() const { return size_; }
  const Status& status() const { return status_; }

  /// Next '<' at or after `pos`.
  uint64_t NextOpen(uint64_t pos) {
    while (Ensure(pos)) {
      const size_t i = open_scan_->Next(static_cast<size_t>(pos - base()));
      if (i < win_.size()) return base() + i;
      pos = base() + win_.size();
    }
    return size_;
  }

  /// The byte at `pos`; '\0' past the end or on a read error.
  char ByteAt(uint64_t pos) { return Ensure(pos) ? At(pos) : '\0'; }

  /// The '>' closing the tag whose '<' sits at `from`, skipping quoted
  /// attribute values.
  uint64_t TagEnd(uint64_t from) {
    static constexpr simd::ByteSet kTagEnd(">\"'");
    uint64_t r = from + 1;
    for (;;) {
      const uint64_t hit = FindAnyAt(r, kTagEnd);
      if (hit >= size_ || At(hit) == '>') return hit;
      r = QuoteEnd(hit) + 1;  // past a quoted attribute value
    }
  }

  /// One past the opaque markup construct whose '<' sits at `t` (`next` =
  /// byte t+1, '!' or '?'): comment, CDATA section, DOCTYPE-style
  /// declaration, or processing instruction.
  uint64_t SkipMarkupConstruct(uint64_t t, char next) {
    if (next == '?') return SkipPastTerm(t + 2, "?>");
    const std::string_view rest = PeekAt(t, 9);
    if (rest.substr(0, 4) == "<!--") return SkipPastTerm(t + 4, "-->");
    if (rest == "<![CDATA[") return SkipPastTerm(t + 9, "]]>");
    return SkipDeclaration(t);
  }

 private:
  /// Up to `n` (< kMinScanChunkBytes) bytes at `pos`; short only at end of
  /// input or on a read error, never at the end of the window.
  std::string_view PeekAt(uint64_t pos, size_t n) {
    return Ensure(pos, n) ? WindowFrom(pos).substr(0, n) : std::string_view();
  }

  uint64_t SkipPastTerm(uint64_t from, std::string_view term) {
    const uint64_t hit = FindPatternAt(from, term);
    return hit >= size_ ? size_ : hit + term.size();
  }

  /// One past the '>' closing a "<!DOCTYPE"-style construct at `from`,
  /// honoring [...] subsets and quoted literals. One vectorized any-of
  /// search per structural step, mirroring the engine's SkipDoctype, so a
  /// multi-megabyte internal subset does not serialize the scan.
  uint64_t SkipDeclaration(uint64_t from) {
    static constexpr simd::ByteSet kStructural("[]>\"'");
    uint64_t r = from + 2;
    int bracket = 0;
    for (;;) {
      const uint64_t hit = FindAnyAt(r, kStructural);
      if (hit >= size_) return size_;
      const char hc = At(hit);
      if (hc == '>' && bracket <= 0) return hit + 1;
      if (hc == '[') ++bracket;
      if (hc == ']') --bracket;
      r = hc == '"' || hc == '\'' ? QuoteEnd(hit) + 1 : hit + 1;
    }
  }

  /// The quote closing the quoted value whose opening quote sits at `q`
  /// (resident); size() when unterminated.
  uint64_t QuoteEnd(uint64_t q) { return FindByteAt(q + 1, At(q)); }

  /// The resident byte at `pos`.
  char At(uint64_t pos) const {
    return win_[static_cast<size_t>(pos - base())];
  }

  uint64_t FindByteAt(uint64_t from, char c) {
    while (Ensure(from)) {
      const std::string_view w = WindowFrom(from);
      const size_t i =
          simd::FindByte(w.data(), w.size(), static_cast<unsigned char>(c));
      if (i < w.size()) return from + i;
      from += w.size();
    }
    return size_;
  }

  uint64_t FindAnyAt(uint64_t from, const simd::ByteSet& set) {
    while (Ensure(from)) {
      const std::string_view w = WindowFrom(from);
      const size_t i = simd::FindAny(w.data(), w.size(), set);
      if (i < w.size()) return from + i;
      from += w.size();
    }
    return size_;
  }

  uint64_t FindPatternAt(uint64_t from, std::string_view term) {
    while (from + term.size() <= size_) {
      // Successive windows overlap by term.size()-1 bytes, and a window
      // holding fewer than term.size() bytes at `from` is refilled from
      // it, so an occurrence straddling a refill is seen whole.
      if (!Ensure(from, term.size())) return size_;
      const std::string_view w = WindowFrom(from);
      const size_t i = simd::FindPattern(w.data(), w.size(), term);
      if (i + term.size() <= w.size()) return from + i;
      from += w.size() - (term.size() - 1);
    }
    return size_;
  }

  /// Makes [pos, pos + n) resident, or [pos, size()) where the input ends
  /// first; false when `pos` is at or past the end, or on a read error.
  bool Ensure(uint64_t pos, size_t n = 1) {
    if constexpr (kRolling) {
      return (pos >= base_ && pos - base_ + n <= win_.size()) || Reload(pos);
    } else {
      return pos < size_;
    }
  }

  /// Absolute offset of the window's first byte.
  uint64_t base() const { return kRolling ? base_ : 0; }

  /// Ensure's slow path: keeps a window that already runs to the end of
  /// the input, else refills the rolling buffer from `pos`.
  bool Reload(uint64_t pos) {
    if (pos >= size_ || !status_.ok()) return false;
    if (pos >= base_ && base_ + win_.size() == size_) return true;
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(chunk_, size_ - pos));
    buf_.resize(std::max(buf_.size(), want));
    size_t done = 0;
    while (done < want) {
      auto n = src_->ReadAt(pos + done, buf_.data() + done, want - done);
      if (!n.ok()) {
        status_ = n.status();
        return false;
      }
      if (*n == 0) break;  // source shrank under us; scan what we have
      done += *n;
    }
    if (done == 0) {
      status_ = Status::IoError(
          "input source returned no data at offset " + std::to_string(pos) +
          " (size " + std::to_string(size_) + ")");
      return false;
    }
    SetWindow(pos, std::string_view(buf_.data(), done));
    return true;
  }

  void SetWindow(uint64_t base, std::string_view bytes) {
    base_ = base;
    win_ = bytes;
    open_scan_.emplace(bytes.data(), bytes.size(), '<');
  }

  std::string_view WindowFrom(uint64_t pos) const {
    const size_t skip = static_cast<size_t>(pos - base());
    return std::string_view(win_.data() + skip, win_.size() - skip);
  }

  // The rolling window's refill source, buffer and placement.
  const InputSource* src_ = nullptr;
  const uint64_t size_;
  const size_t chunk_ = 0;
  std::vector<char> buf_;
  uint64_t base_ = 0;
  std::string_view win_;  // resident bytes [base(), base() + win_.size())
  std::optional<simd::MaskScanner> open_scan_;
  Status status_ = Status::Ok();
};

/// The element walk every boundary consumer drives. Starting at `pos`, a
/// content position (not inside a tag, comment, CDATA section, PI,
/// declaration or quoted value), it visits every element start -- opening
/// or bachelor tag -- whose '<' lies before `stop`, calling
/// `on_element(t, depth)` with `depth` the number of elements open at `t`.
/// `*depth_io` carries that count in and out; closing tags decrement it
/// without a floor, so a walk entered at an unknown depth (0 assumed) can
/// go negative. A false return from `on_element` stops the walk at `t`.
/// Constructs starting before `stop` are consumed whole, even past it.
/// Returns where the walk stopped: `t` on a false return, else the first
/// position at or past `stop` it reached (capped at the document size).
template <typename Scanner, typename OnElement>
uint64_t WalkElements(Scanner* sc, uint64_t pos, uint64_t stop,
                      int64_t* depth_io, OnElement&& on_element) {
  const uint64_t size = sc->size();
  int64_t depth = *depth_io;
  while (pos < stop) {
    const uint64_t t = sc->NextOpen(pos);
    if (t >= stop) {
      pos = stop;
      break;
    }
    const char next = sc->ByteAt(t + 1);
    if (next == '!' || next == '?') {
      pos = sc->SkipMarkupConstruct(t, next);
      continue;
    }
    if (next == '/') {
      --depth;
      pos = sc->TagEnd(t) + 1;
      continue;
    }
    if (!IsNameChar(next)) {
      pos = t + 1;  // stray '<' in text
      continue;
    }
    if (!on_element(t, depth)) {
      pos = t;
      break;
    }
    const uint64_t end = sc->TagEnd(t);
    const bool bachelor =
        end < size && end > t + 1 && sc->ByteAt(end - 1) == '/';
    if (!bachelor) ++depth;
    pos = end + 1;
  }
  *depth_io = depth;
  return std::min(pos, size);
}

constexpr uint64_t kNoPos = ~uint64_t{0};

/// Deepest region-start element depth the region fix-up can resolve;
/// regions starting deeper than this simply report no boundary (safe:
/// shards just get fewer split candidates there).
constexpr int64_t kMaxRelDepth = 256;

/// What one region's independent scan learned, relative to the (unknown at
/// scan time) element depth at its start.
struct RegionSummary {
  /// first_open[d + kMaxRelDepth]: absolute position of the first element
  /// start encountered at relative depth d, for d in [-kMaxRelDepth, 1];
  /// kNoPos when none. A start at relative depth d is a top-level boundary
  /// iff d + (absolute depth at scan start) == 1.
  std::vector<uint64_t> first_open;
  int64_t depth_delta = 0;   ///< net element-depth change across the scan
  uint64_t resume_pos = 0;   ///< one past the last byte the scan consumed
};

/// Walks every element start in [begin, end) at relative depth. A
/// construct straddling `end` is consumed completely, and resume_pos tells
/// the fix-up how far this region's view actually reached.
RegionSummary ScanRegion(std::string_view doc, uint64_t begin, uint64_t end) {
  RegionSummary sum;
  sum.first_open.assign(static_cast<size_t>(kMaxRelDepth + 2), kNoPos);
  StructScanner<false> sc(doc);
  const uint64_t pos = WalkElements(
      &sc, begin, end, &sum.depth_delta, [&sum](uint64_t t, int64_t depth) {
        if (depth <= 1 && depth >= -kMaxRelDepth) {
          uint64_t& slot =
              sum.first_open[static_cast<size_t>(depth + kMaxRelDepth)];
          if (slot == kNoPos) slot = t;
        }
        return true;
      });
  sum.resume_pos = std::max(pos, end);
  return sum;
}

/// First element start at absolute depth 1 at or after `begin`, entering
/// the walk at absolute depth `depth` (known from the region fix-up);
/// kNoPos when none. Stops at the first hit, so the document tail past the
/// last chosen boundary is never read. `scanned` (may be null) accumulates
/// the bytes consumed.
uint64_t FirstTopLevelOpenAt(std::string_view doc, uint64_t begin,
                             int64_t depth, uint64_t* scanned) {
  uint64_t found = kNoPos;
  StructScanner<false> sc(doc);
  const uint64_t pos = WalkElements(&sc, begin, doc.size(), &depth,
                                    [&found](uint64_t t, int64_t d) {
                                      if (d != 1) return true;
                                      found = t;
                                      return false;
                                    });
  if (scanned != nullptr) *scanned += pos - begin;
  return found;
}

/// True when one of `keywords` occurs at `pos` followed by whitespace, '>'
/// or '/', i.e. names a whole tag rather than a prefix of a longer one
/// ("<b" in "<bb>"). Checks every keyword because the matcher reports the
/// shortest of several keywords sharing a start.
bool OpensKeywordTag(std::string_view doc, size_t pos,
                     const std::vector<std::string>& keywords) {
  for (const std::string& kw : keywords) {
    const size_t end = pos + kw.size();
    if (end < doc.size() && doc.compare(pos, kw.size(), kw) == 0 &&
        (IsXmlWhitespace(doc[end]) || doc[end] == '>' || doc[end] == '/')) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status ForEachTopLevelBoundary(
    const InputSource& src, uint64_t chunk_bytes, uint64_t max_splits,
    const std::function<bool(uint64_t offset, uint64_t records)>&
        on_boundary) {
  const uint64_t size = src.size();
  if (max_splits == 0 || size < 2) return Status::Ok();
  const uint64_t stride = size / (max_splits + 1);
  if (stride == 0) return Status::Ok();
  auto select = [&](auto& sc) {
    uint64_t target_idx = 1;  // next split target = target_idx * stride
    uint64_t found = 0;
    uint64_t records = 0;
    int64_t depth = 0;
    WalkElements(&sc, 0, size, &depth, [&](uint64_t t, int64_t d) {
      if (d != 1) return true;  // not a child of the document root
      if (t >= target_idx * stride) {
        if (!on_boundary(t, records)) return false;
        while (target_idx <= max_splits && target_idx * stride <= t) {
          ++target_idx;  // collapse targets this boundary already covers
        }
        if (++found == max_splits) return false;
      }
      ++records;
      return true;
    });
    return sc.status();
  };
  const std::string_view whole = src.Contiguous();
  if (whole.size() == size) {
    StructScanner<false> sc(whole);
    return select(sc);
  }
  StructScanner<true> sc(src, chunk_bytes);
  return select(sc);
}

std::vector<uint64_t> FindTopLevelBoundaries(std::string_view doc,
                                             size_t max_splits) {
  std::vector<uint64_t> splits;
  // Reads of a MemorySource cannot fail.
  (void)ForEachTopLevelBoundary(MemorySource(doc), 0, max_splits,
                                [&splits](uint64_t t, uint64_t) {
                                  splits.push_back(t);
                                  return true;
                                });
  return splits;
}

std::vector<uint64_t> FindTopLevelBoundariesParallel(
    std::string_view doc, size_t max_splits, ThreadPool* pool,
    uint64_t* scanned_bytes, bool) {
  if (scanned_bytes != nullptr) *scanned_bytes = 0;
  std::vector<uint64_t> splits;
  if (max_splits == 0 || doc.size() < 2) return splits;
  const uint64_t stride = doc.size() / (max_splits + 1);
  if (stride == 0) return splits;
  if (pool->size() <= 1) {
    // A one-worker wave degenerates to a sequential whole-document scan;
    // the serial scanner is strictly better (it stops at the last chosen
    // boundary).
    splits = FindTopLevelBoundaries(doc, max_splits);
    if (scanned_bytes != nullptr) {
      *scanned_bytes =
          splits.size() == max_splits ? splits.back() : doc.size();
    }
    return splits;
  }

  // One region per split target; region j = [j*stride, (j+1)*stride). The
  // interior regions are scanned independently on the pool with relative
  // depths; the tail region [max_splits*stride, doc.size()) is *not* part
  // of the wave -- after the fix-up resolves the absolute depth at its
  // start it is scanned lazily, stopping at the first top-level element
  // start (which covers every split target still unfulfilled, all of which
  // sit at or before the tail's begin).
  const size_t interior = max_splits;  // regions 0 .. max_splits-1
  auto region_begin = [stride](size_t j) { return stride * j; };
  auto region_end = [stride](size_t j) { return stride * (j + 1); };
  std::vector<RegionSummary> sums(interior);
  pool->RunAndWait(interior, [&doc, &sums, &region_begin, &region_end](
                                 size_t j) {
    sums[j] = ScanRegion(doc, region_begin(j), region_end(j));
  });
  if (scanned_bytes != nullptr) {
    for (size_t j = 0; j < interior; ++j) {
      *scanned_bytes += sums[j].resume_pos - region_begin(j);
    }
  }

  // Sequential fix-up: thread the actual scan position and absolute depth
  // through the summaries. A region whose start was consumed by a construct
  // straddling in from an earlier region scanned garbage (it assumed its
  // start was content), so it is re-scanned from the construct's true end;
  // a region consumed entirely holds no element starts at all.
  std::vector<uint64_t> boundary(interior, kNoPos);
  uint64_t pos = 0;
  int64_t depth = 0;
  for (size_t j = 0; j < interior; ++j) {
    uint64_t b = region_begin(j);
    uint64_t e = region_end(j);
    if (pos >= e) continue;
    if (pos > b) {
      sums[j] = ScanRegion(doc, pos, e);
      if (scanned_bytes != nullptr) {
        *scanned_bytes += sums[j].resume_pos - pos;
      }
    }
    int64_t want = 1 - depth;  // relative depth of an absolute depth-1 start
    if (want >= -kMaxRelDepth && want <= 1) {
      boundary[j] =
          sums[j].first_open[static_cast<size_t>(want + kMaxRelDepth)];
    }
    depth += sums[j].depth_delta;
    pos = std::max(pos, sums[j].resume_pos);
  }

  // Target selection, matching the serial scanner: for each evenly spaced
  // target, the first top-level element start at or after it; a chosen
  // boundary collapses every target it already covers.
  size_t target_idx = 1;
  while (target_idx <= max_splits) {
    size_t j = target_idx;
    while (j < interior && boundary[j] == kNoPos) ++j;
    if (j >= interior) break;  // remaining targets fall through to the tail
    splits.push_back(boundary[j]);
    target_idx = static_cast<size_t>(boundary[j] / stride) + 1;
  }
  if (target_idx <= max_splits) {
    uint64_t begin = std::max<uint64_t>(pos, region_begin(interior));
    if (begin < doc.size()) {
      uint64_t hit = FirstTopLevelOpenAt(doc, begin, depth, scanned_bytes);
      if (hit != kNoPos) splits.push_back(hit);
    }
  }
  return splits;
}

std::vector<uint64_t> ProbeKeywordBoundaries(std::string_view doc,
                                             const strmatch::Matcher& matcher,
                                             size_t max_splits) {
  std::vector<uint64_t> splits;
  if (max_splits == 0 || doc.size() < 2) return splits;
  const uint64_t stride = doc.size() / (max_splits + 1);
  if (stride == 0) return splits;
  const std::vector<std::string>& keywords = matcher.patterns();
  uint64_t target_idx = 1;  // next split target = target_idx * stride
  size_t from = static_cast<size_t>(stride);
  while (splits.size() < max_splits) {
    const strmatch::Match m = matcher.Search(doc, from, nullptr);
    if (!m.found()) break;
    if (!OpensKeywordTag(doc, m.pos, keywords)) {
      from = m.pos + 1;
      continue;
    }
    splits.push_back(m.pos);
    while (target_idx <= max_splits && target_idx * stride <= m.pos) {
      ++target_idx;  // collapse targets this boundary already covers
    }
    from = static_cast<size_t>(target_idx * stride);
  }
  return splits;
}

}  // namespace smpx::parallel
