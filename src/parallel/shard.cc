#include "parallel/shard.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "simd/simd.h"

namespace smpx::parallel {
namespace {

// The helpers below form a second, simplified structural scanner over
// contiguous input, paired with (but independent from) the engine's
// window-based scanning in core/engine.cc (SkipPast/SkipDoctype/the tag
// scan in HandleMatch). The pairing is advisory only: a boundary this
// scanner gets "wrong" relative to the engine's view of the document can
// only mis-speculate a shard's entry state, which the verification pass in
// ShardedRun detects and repairs by re-running -- correctness never
// depends on the two scanners agreeing, only throughput does.

/// Structural scan context over one contiguous document: a cached
/// per-block '<' bitmap for the candidate scan plus the dispatched per-call
/// kernels for the construct skips. One scanner per scan call: region
/// workers on the pool each build their own (the '<' block cache is not
/// thread-safe).
class StructScanner {
 public:
  explicit StructScanner(std::string_view doc)
      : doc_(doc), open_scan_(doc.data(), doc.size(), '<') {}

  /// Next '<' at or after `pos`; doc.size() when none.
  size_t NextOpen(size_t pos) { return open_scan_.Next(pos); }

  /// Position one past the next occurrence of `term` at or after `from`;
  /// doc.size() when absent.
  size_t SkipPastTerm(size_t from, std::string_view term) {
    if (from >= doc_.size()) return doc_.size();
    const size_t hit = FindPatternAt(from, term);
    if (hit == doc_.size()) return doc_.size();
    return hit + term.size();
  }

  /// Position of the '>' closing the tag whose '<' sits at `from`, skipping
  /// quoted attribute values; doc.size() when unterminated.
  size_t TagEnd(size_t from) {
    static constexpr simd::ByteSet kTagEnd(">\"'");
    size_t r = from + 1;
    for (;;) {
      if (r >= doc_.size()) return doc_.size();
      const size_t hit = FindAnyAt(r, kTagEnd);
      if (hit == doc_.size()) return doc_.size();
      if (doc_[hit] == '>') return hit;
      const size_t end =
          FindByteAt(hit + 1, static_cast<unsigned char>(doc_[hit]));
      if (end == doc_.size()) return doc_.size();
      r = end + 1;
    }
  }

  /// Position one past the '>' closing a "<!DOCTYPE"-style construct at
  /// `from` (pointing at "<!"), honoring [...] subsets and quoted literals.
  /// Bitmap-driven, mirroring the engine's SkipDoctype: one vectorized
  /// any-of classification per structural step, so a pathological
  /// multi-megabyte internal subset does not serialize the boundary scan.
  size_t SkipDeclaration(size_t from) {
    static constexpr simd::ByteSet kStructural("[]>\"'");
    size_t r = from + 2;
    int bracket = 0;
    while (r < doc_.size()) {
      const size_t hit = FindAnyAt(r, kStructural);
      if (hit == doc_.size()) return doc_.size();
      const char hc = doc_[hit];
      if (hc == '[') {
        ++bracket;
        r = hit + 1;
      } else if (hc == ']') {
        --bracket;
        r = hit + 1;
      } else if (hc == '>') {
        if (bracket <= 0) return hit + 1;
        r = hit + 1;
      } else {
        const size_t end =
            FindByteAt(hit + 1, static_cast<unsigned char>(hc));
        if (end == doc_.size()) return doc_.size();
        r = end + 1;
      }
    }
    return doc_.size();
  }

  /// Position one past the opaque markup construct whose '<' sits at `t`
  /// (`next` = doc[t+1], '!' or '?'): comment, CDATA section, DOCTYPE-style
  /// declaration, or processing instruction. Shared by the serial and the
  /// region-parallel scanner so their construct handling cannot diverge.
  size_t SkipMarkupConstruct(size_t t, char next) {
    if (next == '?') return SkipPastTerm(t + 2, "?>");
    std::string_view rest = doc_.substr(t);
    if (rest.substr(0, 4) == "<!--") return SkipPastTerm(t + 4, "-->");
    if (rest.substr(0, 9) == "<![CDATA[") {
      return SkipPastTerm(t + 9, "]]>");
    }
    return SkipDeclaration(t);
  }

 private:
  // Absolute-position primitives: first hit at or after `from`, doc.size()
  // when absent (the kernels return len-when-absent, so from + len lands
  // exactly on doc.size()).
  size_t FindByteAt(size_t from, unsigned char c) {
    if (from >= doc_.size()) return doc_.size();
    return from + simd::FindByte(doc_.data() + from, doc_.size() - from, c);
  }
  size_t FindAnyAt(size_t from, const simd::ByteSet& set) {
    if (from >= doc_.size()) return doc_.size();
    return from + simd::FindAny(doc_.data() + from, doc_.size() - from, set);
  }
  size_t FindPatternAt(size_t from, std::string_view term) {
    if (from >= doc_.size()) return doc_.size();
    return from +
           simd::FindPattern(doc_.data() + from, doc_.size() - from, term);
  }

  std::string_view doc_;
  simd::MaskScanner open_scan_;
};

constexpr uint64_t kNoPos = ~uint64_t{0};

/// Candidate class sentinel: the candidate is never speculated on (e.g. an
/// in-copy candidate over multi-query product tables).
constexpr size_t kNoClass = ~size_t{0};

/// Deepest region-start element depth the lazy scan can resolve; regions
/// starting deeper than this simply report no boundary (safe: shards just
/// get fewer split candidates there).
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

/// Scans every construct *starting* in [begin, end), assuming the scan
/// starts in content (not inside a tag/comment/CDATA/PI/DOCTYPE/quote) at
/// an unknown absolute depth. Construct skips use the full document, so a
/// construct straddling `end` is consumed completely and resume_pos tells
/// the fix-up how far this region's view actually reached.
RegionSummary ScanRegion(std::string_view doc, uint64_t begin, uint64_t end) {
  RegionSummary sum;
  sum.first_open.assign(static_cast<size_t>(kMaxRelDepth + 2), kNoPos);
  int64_t depth = 0;
  size_t pos = static_cast<size_t>(begin);
  const size_t stop = static_cast<size_t>(end);
  StructScanner sc(doc);
  while (pos < stop) {
    size_t t = sc.NextOpen(pos);
    if (t >= stop) {
      pos = stop;
      break;
    }
    std::string_view rest = doc.substr(t);
    if (rest.size() < 2) {
      pos = doc.size();
      break;
    }
    char next = rest[1];
    if (next == '!' || next == '?') {
      pos = sc.SkipMarkupConstruct(t, next);
      continue;
    }
    if (next == '/') {
      size_t tag_end = sc.TagEnd(t);
      --depth;  // may go negative: the region started below its closers
      pos = tag_end + 1;
      continue;
    }
    if (!IsNameChar(next)) {
      pos = t + 1;  // stray '<' in text
      continue;
    }
    // An opening (or bachelor) element tag at relative depth `depth`.
    if (depth <= 1 && depth >= -kMaxRelDepth) {
      size_t slot = static_cast<size_t>(depth + kMaxRelDepth);
      if (sum.first_open[slot] == kNoPos) sum.first_open[slot] = t;
    }
    size_t tag_end = sc.TagEnd(t);
    bool bachelor =
        tag_end < doc.size() && tag_end > t + 1 && doc[tag_end - 1] == '/';
    if (!bachelor) ++depth;
    pos = tag_end + 1;
  }
  sum.depth_delta = depth;
  sum.resume_pos = std::max<uint64_t>(std::min<uint64_t>(pos, doc.size()),
                                      end);
  return sum;
}

/// First element start at absolute depth 1 at or after `begin`, entering
/// the scan at absolute element depth `depth` (known from the region
/// fix-up); kNoPos when none. Unlike ScanRegion this stops at the first
/// hit, so the tail of the document past the last chosen boundary is never
/// read -- the early-exit the serial scanner gets for free. `scanned`
/// accumulates the bytes consumed.
uint64_t FirstTopLevelOpenAt(std::string_view doc, uint64_t begin,
                             int64_t depth, uint64_t* scanned) {
  size_t pos = static_cast<size_t>(begin);
  uint64_t found = kNoPos;
  StructScanner sc(doc);
  while (pos < doc.size()) {
    size_t t = sc.NextOpen(pos);
    if (t == doc.size()) {
      pos = doc.size();
      break;
    }
    std::string_view rest = doc.substr(t);
    if (rest.size() < 2) {
      pos = doc.size();
      break;
    }
    char next = rest[1];
    if (next == '!' || next == '?') {
      pos = sc.SkipMarkupConstruct(t, next);
      continue;
    }
    if (next == '/') {
      --depth;
      pos = sc.TagEnd(t) + 1;
      continue;
    }
    if (!IsNameChar(next)) {
      pos = t + 1;  // stray '<' in text
      continue;
    }
    if (depth == 1) {
      found = t;
      pos = t;
      break;
    }
    size_t tag_end = sc.TagEnd(t);
    bool bachelor =
        tag_end < doc.size() && tag_end > t + 1 && doc[tag_end - 1] == '/';
    if (!bachelor) ++depth;
    pos = tag_end + 1;
  }
  if (scanned != nullptr) {
    *scanned += std::min<uint64_t>(pos, doc.size()) - begin;
  }
  return found;
}

/// True when a resumed session behaves identically from state `a` and `b`:
/// same frontier vocabulary (hence matcher behavior and search counters),
/// same transitions, same opaque-nesting semantics, same finality, same
/// re-entry jump. Entry *actions* are deliberately excluded -- they fire
/// only on transitions, never at a resume point -- so behavior-equivalent
/// boundary candidates (e.g. "after <root>" / "after </record>" in a star
/// root) collapse into a single speculative run.
///
/// This partition is as coarse as exact replay allows. Successors must be
/// the *same states*, not merely equivalent ones: an accepted attempt
/// stands in for the serial run byte-for-byte, including match counters
/// and the states_visited set, and a run routed through a twin state
/// would already diverge on those. Nor is there slack in the transition
/// domain: a state's keyword vocabulary is derived from its transition
/// function, so `keywords` equality plus per-tag successor equality
/// covers every transition the keyword search can reach. Classes that
/// remain distinct (e.g. the phases of an ordered root) differ
/// observably, and the wave cost they add is what early-kill reclaims.
bool SameRuntimeBehavior(const core::RuntimeTables& t, int a, int b) {
  const core::DfaState& A = t.states[static_cast<size_t>(a)];
  const core::DfaState& B = t.states[static_cast<size_t>(b)];
  return A.keywords == B.keywords && A.is_final == B.is_final &&
         A.jump == B.jump && A.count_nesting == B.count_nesting &&
         // The entry tag matters only while tag-balancing an opaque region.
         (!A.count_nesting || A.entry_name == B.entry_name) &&
         A.open_next_id == B.open_next_id &&
         A.close_next_id == B.close_next_id && A.open_next == B.open_next &&
         A.close_next == B.close_next;
}

}  // namespace

std::vector<uint64_t> FindTopLevelBoundaries(std::string_view doc,
                                             size_t max_splits) {
  std::vector<uint64_t> splits;
  if (max_splits == 0 || doc.size() < 2) return splits;
  const size_t stride = doc.size() / (max_splits + 1);
  if (stride == 0) return splits;

  size_t pos = 0;
  size_t depth = 0;        // number of currently open elements
  size_t target_idx = 1;   // next split target = target_idx * stride
  StructScanner sc(doc);
  while (pos < doc.size() && splits.size() < max_splits) {
    size_t t = sc.NextOpen(pos);
    if (t == doc.size()) break;
    std::string_view rest = doc.substr(t);
    if (rest.size() < 2) break;
    char next = rest[1];
    if (next == '!' || next == '?') {
      pos = sc.SkipMarkupConstruct(t, next);
      continue;
    }
    if (next == '/') {
      size_t end = sc.TagEnd(t);
      if (depth > 0) --depth;
      pos = end + 1;
      continue;
    }
    if (!IsNameChar(next)) {
      pos = t + 1;  // stray '<' in text
      continue;
    }
    // An opening (or bachelor) element tag. depth == 1 means its parent is
    // the document root: a top-level boundary.
    if (depth == 1 && t >= target_idx * stride) {
      splits.push_back(t);
      while (target_idx <= max_splits && target_idx * stride <= t) {
        ++target_idx;  // collapse targets this boundary already covers
      }
    }
    size_t end = sc.TagEnd(t);
    bool bachelor = end < doc.size() && end > t + 1 && doc[end - 1] == '/';
    if (!bachelor) ++depth;
    pos = end + 1;
  }
  return splits;
}

uint64_t CountTopLevelStarts(std::string_view doc, uint64_t begin,
                             uint64_t end, int64_t depth_at_begin) {
  uint64_t count = 0;
  int64_t depth = depth_at_begin;
  size_t pos = static_cast<size_t>(begin);
  const size_t stop = static_cast<size_t>(std::min<uint64_t>(end, doc.size()));
  StructScanner sc(doc);
  while (pos < stop) {
    size_t t = sc.NextOpen(pos);
    if (t >= stop) break;
    std::string_view rest = doc.substr(t);
    if (rest.size() < 2) break;
    char next = rest[1];
    if (next == '!' || next == '?') {
      pos = sc.SkipMarkupConstruct(t, next);
      continue;
    }
    if (next == '/') {
      size_t tag_end = sc.TagEnd(t);
      if (depth > 0) --depth;
      pos = tag_end + 1;
      continue;
    }
    if (!IsNameChar(next)) {
      pos = t + 1;  // stray '<' in text
      continue;
    }
    if (depth == 1) ++count;
    size_t tag_end = sc.TagEnd(t);
    bool bachelor =
        tag_end < doc.size() && tag_end > t + 1 && doc[tag_end - 1] == '/';
    if (!bachelor) ++depth;
    pos = tag_end + 1;
  }
  return count;
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

SpeculativeResolver::SpeculativeResolver(const core::RuntimeTables& tables,
                                         std::string_view doc,
                                         const std::vector<uint64_t>& boundaries,
                                         const Options& opts)
    : tables_(tables), doc_(doc), opts_(opts) {
  seg_begin_.reserve(boundaries.size() + 2);
  seg_begin_.push_back(0);
  for (uint64_t b : boundaries) seg_begin_.push_back(b);
  seg_begin_.push_back(doc.size());
  const size_t n = segments();

  // Collapse the static candidate set into behavior classes; candidates
  // whose vocabulary and transitions coincide (they differ only in entry
  // actions, which never re-fire at a resume point) share one speculative
  // run per segment. A candidate's entry copy depth is part of the class
  // key: an attempt is seeded with it, and a session resumed with one
  // active copy behaves observably differently (emits the segment) from a
  // depth-0 resume of the same state.
  const std::vector<int>& boundary_states = tables_.boundary_states;
  class_of_.assign(boundary_states.size(), kNoClass);
  if (n > 1) {
    for (size_t i = 0; i < boundary_states.size(); ++i) {
      const int depth = i < tables_.boundary_copy_depths.size()
                            ? tables_.boundary_copy_depths[i]
                            : 0;
      if (depth != 0 && tables_.multi != nullptr) {
        // Multi-query in-copy hand-offs re-run (see Resolve); never launch
        // an attempt the engine would reject (no per-query depth vector).
        continue;
      }
      size_t c = 0;
      while (c < class_reps_.size() &&
             !(class_rep_depths_[c] == depth &&
               SameRuntimeBehavior(tables_, class_reps_[c],
                                   boundary_states[i]))) {
        ++c;
      }
      if (c == class_reps_.size()) {
        if (class_reps_.size() == opts_.max_candidate_states) {
          // Too many distinct classes to speculate on: stop partitioning
          // (the deep state comparisons are wasted past the cap) and fall
          // back to dynamic seeding.
          class_reps_.clear();
          class_rep_depths_.clear();
          break;
        }
        class_reps_.push_back(boundary_states[i]);
        class_rep_depths_.push_back(depth);
      }
      class_of_[i] = c;
    }
  }
  static_spec_ = n > 1 && !class_reps_.empty() &&
                 class_reps_.size() <= opts_.max_candidate_states;

  results_.resize(n);
  report_.shards = n;
  report_.candidate_states = static_spec_ ? boundary_states.size() : 0;
  report_.candidate_classes = static_spec_ ? class_reps_.size() : 0;
}

SpeculativeResolver::~SpeculativeResolver() { Abort(); }

void SpeculativeResolver::RunSegment(size_t k,
                                     const core::SessionCheckpoint* start,
                                     ShardResult* r, bool mark_start,
                                     const std::atomic<bool>* cancel) {
  const size_t n = segments();
  uint64_t begin = start != nullptr ? start->feed_begin() : seg_begin_[k];
  uint64_t end = seg_begin_[k + 1];
  core::EngineOptions eopts = opts_.engine;
  eopts.mark_start_state_visited = mark_start;
  eopts.cancel = cancel;
  CountingSink counter;
  std::vector<CountingSink> mq_counters;
  std::unique_ptr<core::PrefilterSession> session;
  if (tables_.multi != nullptr) {
    // Multi-query product tables: one budget-bounded segment per unique
    // query; the aggregate budget is split evenly across the queries.
    const size_t m = static_cast<size_t>(tables_.multi->num_queries);
    const size_t per_query =
        opts_.max_buffer_bytes != 0
            ? std::max<size_t>(opts_.max_buffer_bytes / m, 1)
            : SpillSink::kUnlimited;
    std::vector<OutputSink*> outs(m);
    if (opts_.capture_output) {
      r->mq_sinks.reserve(m);
      for (size_t u = 0; u < m; ++u) {
        r->mq_sinks.push_back(
            std::make_unique<SpillSink>(per_query, opts_.arena));
        outs[u] = r->mq_sinks.back().get();
      }
    } else {
      mq_counters.resize(m);
      for (size_t u = 0; u < m; ++u) outs[u] = &mq_counters[u];
    }
    session = std::make_unique<core::PrefilterSession>(
        tables_, std::move(outs), &r->mq_stats, &r->stats, eopts, start);
  } else {
    OutputSink* out = &counter;
    if (opts_.capture_output) {
      r->sink = std::make_unique<SpillSink>(opts_.max_buffer_bytes != 0
                                                ? opts_.max_buffer_bytes
                                                : SpillSink::kUnlimited,
                                            opts_.arena);
      out = r->sink.get();
    }
    session = std::make_unique<core::PrefilterSession>(tables_, out,
                                                       &r->stats, eopts, start);
  }
  r->status = session->Resume(doc_.substr(static_cast<size_t>(begin),
                                          static_cast<size_t>(end - begin)));
  if (r->status.ok() && k + 1 == n && !session->finished()) {
    r->status = session->Finish();
  } else {
    session->FinalizeStats();
  }
  r->finished = session->finished();
  r->exit = session->checkpoint();
  r->clean = session->drained_cleanly();
  r->visited = session->visited();
  r->read_end = begin + r->stats.input_bytes;
}

void SpeculativeResolver::RunAttempt(size_t idx, Attempt* a) {
  if (static_spec_) {
    if (idx == 0) {
      RunSegment(0, nullptr, &a->result, /*mark_start=*/true, &a->cancel);
      return;
    }
    const size_t classes = class_reps_.size();
    size_t k = 1 + (idx - 1) / classes;
    size_t c = (idx - 1) % classes;
    core::SessionCheckpoint start;
    start.state = class_reps_[c];
    // In-copy candidates resume mid-copy with nothing flushed yet: the
    // session emits [boundary, ...) itself and the driver owes the
    // predecessor's unflushed tail below the boundary (ShardResult::
    // tail_begin/tail_end, recorded on acceptance).
    start.copy_depth = class_rep_depths_[c];
    start.cursor = seg_begin_[k];
    start.copy_flushed = seg_begin_[k];
    // The representative may differ from the true entry state (whose
    // visited bit the predecessor's hand-off owns); don't count it.
    RunSegment(k, &start, &a->result, /*mark_start=*/false, &a->cancel);
  } else {
    size_t k = idx + 1;
    core::SessionCheckpoint start = dynamic_guess_;
    start.cursor = seg_begin_[k];
    start.copy_flushed = seg_begin_[k];
    RunSegment(k, &start, &a->result, /*mark_start=*/true, &a->cancel);
  }
}

void SpeculativeResolver::KillLocked(Attempt* a) {
  if (a->loser) return;
  a->loser = true;
  a->cancel.store(true, std::memory_order_relaxed);
  if (a->done) {
    // Completed before it lost: reclaim its buffer/spill right away. A
    // still-running one frees itself in AttemptTask when it stops.
    a->result.sink.reset();
    a->result.mq_sinks.clear();
    a->result.visited.clear();
  }
}

void SpeculativeResolver::AttemptTask(size_t idx) {
  // `outstanding_` counts *task invocations*, not attempt completions:
  // every exit path below decrements exactly once, so Abort's drain also
  // covers the back-off path of a task whose attempt was stolen -- the
  // resolver must not die while any submitted closure can still run.
  Attempt& a = *attempts_[idx];
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (a.started) {  // stolen by the resolving thread; it published
      --outstanding_;
      cv_.notify_all();
      return;
    }
    if (a.loser) {
      // Killed before it ever started: the whole attempt is reclaimed
      // wave work.
      ++report_.killed;
      a.done = true;
      --outstanding_;
      cv_.notify_all();
      return;
    }
    a.started = true;
  }
  RunAttempt(idx, &a);
  std::unique_lock<std::mutex> lock(mu_);
  report_.wave_bytes += a.result.stats.input_bytes;
  if (a.result.status.code() == StatusCode::kCancelled) ++report_.killed;
  if (a.loser) {
    a.result.sink.reset();
    a.result.mq_sinks.clear();
    a.result.visited.clear();
  }
  a.done = true;
  --outstanding_;
  cv_.notify_all();
}

void SpeculativeResolver::WaitDone(size_t idx) {
  Attempt& a = *attempts_[idx];
  std::unique_lock<std::mutex> lock(mu_);
  if (!a.started && !a.done) {
    // Still queued behind busy workers, but it is the one attempt the
    // resolve loop needs next: run it here instead of idling. The queued
    // pool task sees `started` and backs off.
    a.started = true;
    lock.unlock();
    RunAttempt(idx, &a);
    lock.lock();
    ++report_.stolen;
    report_.wave_bytes += a.result.stats.input_bytes;
    a.done = true;  // the queued task backs off and decrements outstanding_
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&a] { return a.done; });
}

void SpeculativeResolver::LaunchWave(ThreadPool* pool) {
  const size_t n = segments();
  if (static_spec_) {
    // One fully parallel wave: the head plus |classes| speculative runs
    // per non-head segment. Nothing serializes ahead of the wave, and
    // nothing waits for it either -- Resolve picks attempts up as their
    // exits land.
    const size_t classes = class_reps_.size();
    const size_t total = 1 + (n - 1) * classes;
    attempts_.reserve(total);
    for (size_t i = 0; i < total; ++i) {
      attempts_.push_back(std::make_unique<Attempt>());
    }
    report_.speculated = n - 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      outstanding_ = total;
    }
    for (size_t idx = 0; idx < total; ++idx) {
      pool->Submit([this, idx] { AttemptTask(idx); });
    }
  } else {
    // Dynamic fallback (PR-2 scheme): the document head runs for real --
    // its exit state is the speculation seed for every other segment.
    RunSegment(0, nullptr, &results_[0], /*mark_start=*/true, nullptr);
    report_.serial_bytes += results_[0].stats.input_bytes;
    const ShardResult& head = results_[0];
    // A single-query head suspended inside a copy region still seeds
    // speculation (the attempts resume at its depth, tail bytes are the
    // driver's); multi-query tables need per-query depth vectors the seed
    // cannot supply, so they keep requiring a copy-free hand-off.
    dynamic_spec_ = n > 1 && head.status.ok() && !head.finished &&
                    head.clean && head.exit.nesting_depth == 0 &&
                    (head.exit.copy_depth == 0 || tables_.multi == nullptr);
    if (dynamic_spec_) {
      dynamic_guess_ = head.exit;
      attempts_.reserve(n - 1);
      for (size_t i = 0; i + 1 < n; ++i) {
        attempts_.push_back(std::make_unique<Attempt>());
      }
      report_.speculated = n - 1;
      {
        std::lock_guard<std::mutex> lock(mu_);
        outstanding_ = n - 1;
      }
      for (size_t idx = 0; idx + 1 < n; ++idx) {
        pool->Submit([this, idx] { AttemptTask(idx); });
      }
    }
  }
}

ShardResult& SpeculativeResolver::Resolve(size_t k) {
  if (k == 0) {
    if (static_spec_) {
      WaitDone(0);
      std::lock_guard<std::mutex> lock(mu_);
      results_[0] = std::move(attempts_[0]->result);
    }
    return results_[0];  // dynamic mode ran the head synchronously
  }
  ShardResult& prev = results_[k - 1];
  // Accept the speculative attempt whose assumed entry (state, copy depth)
  // matches the predecessor's actual hand-off; otherwise re-run the
  // segment from the true checkpoint. Deterministic by construction -- the
  // accepted sequence replays the serial run (early-kill only cancels
  // attempts that were never going to be part of it).
  //
  // Why a copy-depth match suffices: a clean drain means no keyword
  // completed in the overlap tail, and no keyword can straddle a
  // top-level '<' (keywords contain '<' only at position 0), so state,
  // copy depth and opaque nesting are all constant from the exit cursor
  // through the boundary -- (state, depth, nesting 0) IS the serial
  // engine's entry configuration there. An in-copy hand-off additionally
  // owes the unflushed copy bytes [exit.copy_flushed, boundary) that the
  // predecessor's suspension withheld; the accepted attempt started
  // flushing at the boundary, so they are recorded as the segment's
  // hand-off tail for the driver and folded into its output stats.
  // Multi-query product tables keep the re-run fallback when copies are
  // active: a candidate would need the full per-query depth vector, which
  // the static analysis does not enumerate.
  const bool maybe_speculated =
      prev.clean && prev.exit.nesting_depth == 0 &&
      (prev.exit.copy_depth == 0 || tables_.multi == nullptr);
  size_t hit = kNoClass;
  if (maybe_speculated) {
    if (static_spec_) {
      const std::vector<int>& boundary_states = tables_.boundary_states;
      const std::vector<int>& depths = tables_.boundary_copy_depths;
      for (size_t c = 0; c < boundary_states.size(); ++c) {
        const int depth = c < depths.size() ? depths[c] : 0;
        if (boundary_states[c] == prev.exit.state &&
            depth == prev.exit.copy_depth && class_of_[c] != kNoClass) {
          hit = class_of_[c];
          break;
        }
      }
    } else if (dynamic_spec_ && prev.exit.state == dynamic_guess_.state &&
               prev.exit.copy_depth == dynamic_guess_.copy_depth) {
      hit = 0;
    }
  }
  const size_t classes = static_spec_ ? class_reps_.size()
                        : dynamic_spec_ ? 1
                                        : 0;
  if (hit != kNoClass) {
    // Kill the losing attempts of this segment before waiting on the
    // winner: a running loser aborts at its next safe point and frees its
    // buffered output mid-wave.
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t c = 0; c < classes; ++c) {
        if (c != hit) {
          KillLocked(attempts_[AttemptIndex(k, c)].get());
        }
      }
    }
    WaitDone(AttemptIndex(k, hit));
    {
      std::lock_guard<std::mutex> lock(mu_);
      results_[k] = std::move(attempts_[AttemptIndex(k, hit)]->result);
    }
    if (prev.exit.copy_depth > 0) {
      ++report_.copy_handoffs;
      if (prev.exit.copy_flushed < seg_begin_[k]) {
        results_[k].tail_begin = prev.exit.copy_flushed;
        results_[k].tail_end = seg_begin_[k];
        results_[k].stats.output_bytes +=
            results_[k].tail_end - results_[k].tail_begin;
      }
    }
    ++report_.accepted;
  } else {
    // Mis-speculation: every attempt of this segment lost. Kill them all,
    // then re-run from the true checkpoint on this thread.
    if (classes > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t c = 0; c < classes; ++c) {
        KillLocked(attempts_[AttemptIndex(k, c)].get());
      }
    }
    ShardResult rerun;
    core::SessionCheckpoint start = prev.exit;
    RunSegment(k, &start, &rerun, /*mark_start=*/true, nullptr);
    results_[k] = std::move(rerun);
    ++report_.reruns;
    report_.serial_bytes += results_[k].stats.input_bytes;
  }
  return results_[k];
}

void SpeculativeResolver::Abort() {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::unique_ptr<Attempt>& a : attempts_) KillLocked(a.get());
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void MergeRunStats(core::RunStats* dst, const core::RunStats& src) {
  dst->input_bytes += src.input_bytes;
  dst->output_bytes += src.output_bytes;
  dst->search.Add(src.search);
  dst->scan_chars += src.scan_chars;
  dst->initial_jumps += src.initial_jumps;
  dst->initial_jump_chars += src.initial_jump_chars;
  dst->matches += src.matches;
  dst->false_matches += src.false_matches;
  dst->bm_searches += src.bm_searches;
  dst->cw_searches += src.cw_searches;
  dst->window_peak = std::max(dst->window_peak, src.window_peak);
}

Status ShardedRun(const core::RuntimeTables& tables, std::string_view doc,
                  OutputSink* out, core::RunStats* stats, ThreadPool* pool,
                  const ShardOptions& opts, ShardReport* report) {
  if (tables.states.empty()) {
    return Status::InvalidArgument("empty runtime tables");
  }
  if (tables.multi != nullptr) {
    return Status::InvalidArgument(
        "multi-query tables need MultiQueryShardedRun (one sink per query)");
  }
  size_t max_shards =
      opts.max_shards != 0 ? opts.max_shards
                           : static_cast<size_t>(std::max(1, pool->size()));
  std::vector<uint64_t> bounds;
  if (max_shards > 1) {
    bounds = pool->size() > 1
                 ? FindTopLevelBoundariesParallel(doc, max_shards - 1, pool)
                 : FindTopLevelBoundaries(doc, max_shards - 1);
  }

  SpeculativeResolver::Options ropts;
  ropts.max_candidate_states = opts.max_candidate_states;
  ropts.max_buffer_bytes = opts.max_buffer_bytes;
  ropts.engine = opts.engine;
  // All attempts of the wave share one spill file; killed attempts
  // release their extents the moment they are freed.
  SpillArena arena;
  ropts.arena = &arena;
  SpeculativeResolver resolver(tables, doc, bounds, ropts);
  const size_t n = resolver.segments();
  resolver.LaunchWave(pool);

  // Sequential verification with streaming commit: each segment resolved
  // by the SpeculativeResolver (accepted attempt or synchronous re-run) is
  // installed into the ordered-commit frontier immediately, which streams
  // it into `out` and frees its buffer/spill before the next shard is even
  // verified; the rejected attempts of a resolved shard are freed at the
  // same moment. Peak resident output is therefore bounded by the
  // per-segment budget times the outstanding attempts, never by the
  // projection size.
  OrderedCommitSink commit(out, n);
  Status commit_status =
      commit.Install(0, std::move(resolver.Resolve(0).sink));
  Status final_status;
  size_t produced = n;
  for (size_t k = 1; commit_status.ok() && k < n; ++k) {
    ShardResult& prev = resolver.result(k - 1);
    if (!prev.status.ok()) {
      final_status = prev.status;
      produced = k;
      break;
    }
    if (prev.finished) {
      produced = k;  // serial run ends here; later bytes are ignored
      break;
    }
    ShardResult& r = resolver.Resolve(k);
    if (r.tail_end > r.tail_begin) {
      // In-copy hand-off: the predecessor suspended with copy bytes below
      // the boundary unflushed and the accepted attempt's output starts AT
      // the boundary. Segments install strictly in order, so the ordered
      // frontier is caught up with segment k-1 here and the tail streams
      // straight into the output between the two segments.
      commit_status = out->Append(doc.substr(
          static_cast<size_t>(r.tail_begin),
          static_cast<size_t>(r.tail_end - r.tail_begin)));
      if (!commit_status.ok()) break;
    }
    commit_status = commit.Install(k, std::move(r.sink));
  }
  // Cancel whatever the early exits above made moot (attempts past a
  // finished or failed segment) and quiesce the wave: the report's work
  // counters are mutated by in-flight attempts until they drain.
  resolver.Abort();
  if (!commit_status.ok()) {
    if (report != nullptr) *report = resolver.report();
    return commit_status;
  }
  if (produced < n) commit.Truncate(produced);
  if (final_status.ok() && produced == n &&
      !resolver.result(n - 1).status.ok()) {
    final_status = resolver.result(n - 1).status;
  }
  if (report != nullptr) *report = resolver.report();
  if (stats != nullptr) {
    std::vector<bool> visited;
    uint64_t read_end = 0;  // how far into the document reads have advanced
    for (size_t k = 0; k < produced; ++k) {
      // Attribute to each shard the document range it advanced through:
      // re-run hand-offs re-read their predecessor's overlap tail (counted
      // once), and initial jumps across a boundary leave a gap the serial
      // stream would have read and discarded (counted for parity).
      ShardResult& r = resolver.result(k);
      r.stats.input_bytes =
          r.read_end > read_end ? r.read_end - read_end : 0;
      read_end = std::max(read_end, r.read_end);
      MergeRunStats(stats, r.stats);
      if (visited.empty()) visited = r.visited;
      for (size_t i = 0; i < r.visited.size(); ++i) {
        if (r.visited[i]) visited[i] = true;
      }
    }
    stats->states_visited = 0;
    for (bool v : visited) {
      if (v) ++stats->states_visited;
    }
  }
  return final_status;
}

Status MultiQueryShardedRun(const core::RuntimeTables& tables,
                            std::string_view doc,
                            const std::vector<OutputSink*>& query_sinks,
                            std::vector<core::QueryRunStats>* query_stats,
                            core::RunStats* stats, ThreadPool* pool,
                            const ShardOptions& opts, ShardReport* report) {
  if (tables.states.empty()) {
    return Status::InvalidArgument("empty runtime tables");
  }
  if (tables.multi == nullptr) {
    return Status::InvalidArgument(
        "MultiQueryShardedRun needs multi-query product tables");
  }
  const size_t m = static_cast<size_t>(tables.multi->num_queries);
  if (query_sinks.size() != m) {
    return Status::InvalidArgument(
        "multi-query sharded run needs one sink per unique query (" +
        std::to_string(m) + "), got " + std::to_string(query_sinks.size()));
  }
  size_t max_shards =
      opts.max_shards != 0 ? opts.max_shards
                           : static_cast<size_t>(std::max(1, pool->size()));
  std::vector<uint64_t> bounds;
  if (max_shards > 1) {
    bounds = pool->size() > 1
                 ? FindTopLevelBoundariesParallel(doc, max_shards - 1, pool)
                 : FindTopLevelBoundaries(doc, max_shards - 1);
  }

  SpeculativeResolver::Options ropts;
  ropts.max_candidate_states = opts.max_candidate_states;
  ropts.max_buffer_bytes = opts.max_buffer_bytes;
  ropts.engine = opts.engine;
  SpillArena arena;
  ropts.arena = &arena;
  SpeculativeResolver resolver(tables, doc, bounds, ropts);
  const size_t n = resolver.segments();
  resolver.LaunchWave(pool);

  // Same sequential verification as ShardedRun, but each query owns its
  // own ordered-commit frontier: the moment a segment's entry is verified,
  // its per-query SpillSinks stream into the respective query sinks and
  // are freed. Per-query matches accumulate from the resolved segments
  // only -- exactly the segments the serial run would have executed.
  std::vector<std::unique_ptr<OrderedCommitSink>> commits;
  commits.reserve(m);
  for (size_t u = 0; u < m; ++u) {
    commits.push_back(std::make_unique<OrderedCommitSink>(query_sinks[u], n));
  }
  std::vector<core::QueryRunStats> totals(m);
  Status commit_status;
  Status final_status;
  size_t produced = n;
  for (size_t k = 0; commit_status.ok() && k < n; ++k) {
    if (k > 0) {
      ShardResult& prev = resolver.result(k - 1);
      if (!prev.status.ok()) {
        final_status = prev.status;
        produced = k;
        break;
      }
      if (prev.finished) {
        produced = k;  // serial run ends here; later bytes are ignored
        break;
      }
    }
    ShardResult& r = resolver.Resolve(k);
    for (size_t u = 0; u < m && u < r.mq_stats.size(); ++u) {
      totals[u].matches += r.mq_stats[u].matches;
      totals[u].output_bytes += r.mq_stats[u].output_bytes;
    }
    for (size_t u = 0; u < m; ++u) {
      std::unique_ptr<SpillSink> seg;
      if (u < r.mq_sinks.size()) seg = std::move(r.mq_sinks[u]);
      Status s = commits[u]->Install(k, std::move(seg));
      if (commit_status.ok() && !s.ok()) commit_status = s;
    }
  }
  resolver.Abort();
  if (!commit_status.ok()) {
    if (report != nullptr) *report = resolver.report();
    return commit_status;
  }
  if (produced < n) {
    for (size_t u = 0; u < m; ++u) commits[u]->Truncate(produced);
  }
  if (final_status.ok() && produced == n &&
      !resolver.result(n - 1).status.ok()) {
    final_status = resolver.result(n - 1).status;
  }
  if (report != nullptr) *report = resolver.report();
  if (query_stats != nullptr) *query_stats = std::move(totals);
  if (stats != nullptr) {
    std::vector<bool> visited;
    uint64_t read_end = 0;
    for (size_t k = 0; k < produced; ++k) {
      ShardResult& r = resolver.result(k);
      r.stats.input_bytes =
          r.read_end > read_end ? r.read_end - read_end : 0;
      read_end = std::max(read_end, r.read_end);
      MergeRunStats(stats, r.stats);
      if (visited.empty()) visited = r.visited;
      for (size_t i = 0; i < r.visited.size(); ++i) {
        if (r.visited[i]) visited[i] = true;
      }
    }
    stats->states_visited = 0;
    for (bool v : visited) {
      if (v) ++stats->states_visited;
    }
  }
  return final_status;
}

}  // namespace smpx::parallel
