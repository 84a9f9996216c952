#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/strings.h"
#include "simd/simd.h"

namespace smpx::core {
namespace {

/// Returns values for HandleMatch's caller.
enum HandleResult {
  kFalseMatch = 0,  ///< candidate rejected; retry past it
  kAccepted = 1,    ///< transition performed
  kNeedInput = 2    ///< scan hit the end of a non-final chunk; suspend
};

/// Serves the session's current chunk to the sliding window in push mode.
/// Reading past the chunk looks like EOF until the next SetChunk +
/// SlidingWindow::ClearEof.
class FeedStream : public InputStream {
 public:
  void SetChunk(std::string_view chunk) { chunk_ = chunk; }

  Result<size_t> Read(char* buf, size_t len) override {
    size_t n = std::min(len, chunk_.size());
    std::memcpy(buf, chunk_.data(), n);
    chunk_.remove_prefix(n);
    return n;
  }

 private:
  std::string_view chunk_;
};

}  // namespace

/// The engine proper: mutable run state shared by the helpers below. One
/// instance backs both the serial pull-mode RunEngine (suspension disabled;
/// behavior byte-identical to the historical one-shot engine) and the
/// resumable push-mode PrefilterSession (suspension via snapshot/restore at
/// the per-candidate safe points).
class PrefilterSession::Impl {
 public:
  enum class Step { kDone, kNeedMore, kError };

  /// `in` == nullptr selects push mode (chunks via Resume); otherwise the
  /// engine pulls from `in` to completion and never suspends.
  /// `multi_mode` selects the multi-query variant: `out` is null and every
  /// query's bytes go to its own sink in `query_sinks` (MultiQueryInfo
  /// order).
  Impl(const RuntimeTables& tables, InputStream* in, OutputSink* out,
       RunStats* stats, const EngineOptions& opts,
       const SessionCheckpoint* start, bool multi_mode = false,
       std::vector<OutputSink*> query_sinks = {},
       std::vector<QueryRunStats>* query_stats = nullptr)
      : tables_(tables),
        win_(in != nullptr ? in : &feed_, opts.window_capacity,
             start != nullptr ? start->feed_begin() : 0),
        out_(out),
        stats_(stats != nullptr ? stats : &local_stats_),
        opts_(opts),
        interned_(tables.interned_dispatch),
        suspendable_(in == nullptr),
        final_input_(in != nullptr),
        mq_sinks_(std::move(query_sinks)),
        mq_qstats_(query_stats) {
    win_.set_evict_fn([this](uint64_t begin, std::string_view data) {
      OnEvict(begin, data);
    });
    // Invalid construction makes the session inert: Resume/Finish surface
    // status_, finished() reports false, nothing ever indexes the tables.
    if (tables_.states.empty()) {
      status_ = Status::InvalidArgument("empty runtime tables");
      visited_.assign(1, false);
      prolog_done_ = true;
      return;
    }
    if (start != nullptr &&
        (start->state < 0 ||
         static_cast<size_t>(start->state) >= tables_.states.size())) {
      status_ = Status::InvalidArgument("checkpoint state out of range");
      visited_.assign(tables_.states.size(), false);
      prolog_done_ = true;
      return;
    }
    if (multi_mode || tables_.multi != nullptr) {
      const MultiQueryInfo* mq = tables_.multi.get();
      Status bad;
      if (mq == nullptr) {
        bad = Status::InvalidArgument(
            "multi-query session requires product tables");
      } else if (!multi_mode) {
        bad = Status::InvalidArgument(
            "multi-query tables require the per-query-sink session");
      } else if (!tables_.interned_dispatch) {
        bad = Status::InvalidArgument(
            "multi-query tables require interned dispatch");
      } else if (static_cast<int>(mq_sinks_.size()) != mq->num_queries) {
        bad = Status::InvalidArgument(
            "query sink count does not match the compiled query mix");
      } else if (start != nullptr && !start->mq_copy_depth.empty() &&
                 (static_cast<int>(start->mq_copy_depth.size()) !=
                      mq->num_queries ||
                  start->mq_copy_flushed.size() !=
                      start->mq_copy_depth.size())) {
        bad = Status::InvalidArgument(
            "checkpoint per-query copy state does not match the query mix");
      } else if (start != nullptr && start->copy_depth > 0 &&
                 start->mq_copy_depth.empty()) {
        bad = Status::InvalidArgument(
            "multi-query checkpoint with active copies needs per-query "
            "copy state");
      }
      if (!bad.ok()) {
        status_ = bad;
        visited_.assign(std::max<size_t>(tables_.states.size(), 1), false);
        prolog_done_ = true;
        return;
      }
      mq_ = mq;
      const size_t n = static_cast<size_t>(mq->num_queries);
      mq_matches_.assign(n, 0);
      if (start != nullptr && !start->mq_copy_depth.empty()) {
        mq_copy_depth_ = start->mq_copy_depth;
        mq_copy_flushed_ = start->mq_copy_flushed;
      } else {
        mq_copy_depth_.assign(n, 0);
        mq_copy_flushed_.assign(n, 0);
      }
    }
    visited_.assign(tables_.states.size(), false);
    if (start != nullptr) {
      q_ = start->state;
      cursor_ = start->cursor;
      nesting_depth_ = start->nesting_depth;
      copy_depth_ = start->copy_depth;
      copy_flushed_ = start->copy_flushed;
      // The checkpoint says whether a prolog construct is still pending
      // and whether the current state's initial jump was already applied
      // (re-applying a consumed jump would skip live bytes).
      prolog_done_ = start->prolog_done;
      jump_pending_ = start->jump_pending;
    } else {
      q_ = tables_.initial;
      prolog_done_ = !opts_.skip_prolog;
    }
    if (start == nullptr || opts_.mark_start_state_visited) MarkVisited();
    lock_floor_ = cursor_;
  }

  Status Resume(std::string_view chunk) {
    if (!status_.ok()) return status_;
    if (finished()) return Status::Ok();  // trailing bytes are ignored
    feed_.SetChunk(chunk);
    win_.ClearEof();
    Step s = Drive();
    if (s == Step::kError) return status_;
    if (s == Step::kNeedMore && copy_depth_ > 0) {
      // Hand-off invariant: everything below checkpoint().feed_begin()
      // has been emitted, so a successor session never needs our buffered
      // bytes. The flush is clamped to the delivered input -- an initial
      // jump can park the cursor beyond it, and those copy bytes (not yet
      // received) are re-fed to the successor via feed_begin().
      const uint64_t end = std::min(cursor_, win_.limit());
      Status flush = mq_ != nullptr ? FlushAllQueryCopies(end)
                                    : EmitCopiedRange(end);
      if (!flush.ok()) {
        status_ = flush;
        return status_;
      }
    }
    return Status::Ok();
  }

  Status Finish() {
    final_input_ = true;
    if (status_.ok() && !finished()) {
      Step s = Drive();
      (void)s;  // kError left its status in status_; kNeedMore impossible
    }
    FinalizeStats();
    return status_;
  }

  /// Pull-mode entry point (serial RunEngine).
  Status Run() {
    Step s = Drive();
    (void)s;
    if (status_.ok()) FinalizeStats();
    return status_;
  }

  bool finished() const {
    return status_.ok() &&
           tables_.states[static_cast<size_t>(q_)].is_final;
  }

  SessionCheckpoint checkpoint() const {
    SessionCheckpoint cp;
    cp.state = q_;
    cp.cursor = cursor_;
    cp.nesting_depth = nesting_depth_;
    cp.copy_depth = copy_depth_;
    cp.copy_flushed = copy_flushed_;
    cp.prolog_done = prolog_done_;
    cp.jump_pending = jump_pending_;
    if (mq_ != nullptr) {
      cp.mq_copy_depth = mq_copy_depth_;
      cp.mq_copy_flushed = mq_copy_flushed_;
    }
    return cp;
  }

  bool drained_cleanly() const { return drained_cleanly_; }

  void FinalizeStats() {
    stats_->input_bytes = win_.bytes_read() - win_.origin();
    if (mq_ != nullptr) {
      uint64_t total = 0;
      for (OutputSink* s : mq_sinks_) total += s->bytes_written();
      stats_->output_bytes = total;
      if (mq_qstats_ != nullptr) {
        mq_qstats_->assign(mq_sinks_.size(), QueryRunStats{});
        for (size_t qy = 0; qy < mq_sinks_.size(); ++qy) {
          (*mq_qstats_)[qy].matches = mq_matches_[qy];
          (*mq_qstats_)[qy].output_bytes = mq_sinks_[qy]->bytes_written();
        }
      }
    } else {
      stats_->output_bytes = out_->bytes_written();
    }
    stats_->window_peak = win_.max_capacity_used();
    stats_->states_visited = 0;
    for (bool v : visited_) {
      if (v) ++stats_->states_visited;
    }
  }

  const std::vector<bool>& visited() const { return visited_; }

 private:
  /// Everything a suspension must roll back to re-run a truncated candidate
  /// scan after more input arrives. Output is never part of a snapshot:
  /// suspension happens strictly before any emitting step.
  struct Snapshot {
    int q;
    uint64_t cursor;
    uint64_t nesting_depth;
    int copy_depth;
    uint64_t copy_flushed;
    bool jump_pending;
    RunStats stats;
    // Multi-query state; the vector assignments reuse capacity, so a safe
    // point stays allocation-free after the first one.
    std::vector<int> mq_copy_depth;
    std::vector<uint64_t> mq_copy_flushed;
    std::vector<uint64_t> mq_matches;
  };

  /// True when running in push mode and more chunks may still arrive --
  /// i.e. an exhausted scan means "suspend", not "the document ends here".
  bool MayResume() const { return suspendable_ && !final_input_; }

  /// set_lock with a floor: in push mode the bytes from the last safe point
  /// onward must stay resident so a restored attempt can re-scan them.
  void Lock(uint64_t pos) {
    win_.set_lock(suspendable_ ? std::min(pos, lock_floor_) : pos);
  }

  /// Marks the current position as a safe point: suspension at or after it
  /// resumes from here. Also the lock floor (see Lock).
  void MarkSafePoint() {
    lock_floor_ = cursor_;
    if (suspendable_) {
      snap_.q = q_;
      snap_.cursor = cursor_;
      snap_.nesting_depth = nesting_depth_;
      snap_.copy_depth = copy_depth_;
      snap_.copy_flushed = copy_flushed_;
      snap_.jump_pending = jump_pending_;
      snap_.stats = *stats_;
      if (mq_ != nullptr) {
        snap_.mq_copy_depth = mq_copy_depth_;
        snap_.mq_copy_flushed = mq_copy_flushed_;
        snap_.mq_matches = mq_matches_;
      }
    }
  }

  void RestoreSafePoint() {
    q_ = snap_.q;
    cursor_ = snap_.cursor;
    nesting_depth_ = snap_.nesting_depth;
    copy_depth_ = snap_.copy_depth;
    copy_flushed_ = snap_.copy_flushed;
    jump_pending_ = snap_.jump_pending;
    *stats_ = snap_.stats;
    if (mq_ != nullptr) {
      mq_copy_depth_ = snap_.mq_copy_depth;
      mq_copy_flushed_ = snap_.mq_copy_flushed;
      mq_matches_ = snap_.mq_matches;
    }
  }

  // Incremental flush of the active copy region when the window slides.
  void OnEvict(uint64_t begin, std::string_view data) {
    if (copy_depth_ == 0) return;
    uint64_t end = begin + data.size();
    if (mq_ != nullptr) {
      for (size_t qy = 0; qy < mq_copy_depth_.size(); ++qy) {
        if (mq_copy_depth_[qy] == 0 || end <= mq_copy_flushed_[qy]) continue;
        uint64_t from = std::max(begin, mq_copy_flushed_[qy]);
        Status s = mq_sinks_[qy]->Append(
            data.substr(static_cast<size_t>(from - begin),
                        static_cast<size_t>(end - from)));
        if (!s.ok() && status_.ok()) status_ = s;
        mq_copy_flushed_[qy] = end;
      }
      RecomputeMqCopyFlushed(end);
      return;
    }
    if (end <= copy_flushed_) return;
    uint64_t from = std::max(begin, copy_flushed_);
    Status s = out_->Append(
        data.substr(static_cast<size_t>(from - begin),
                    static_cast<size_t>(end - from)));
    if (!s.ok() && status_.ok()) status_ = s;
    copy_flushed_ = end;
  }

  Status Emit(std::string_view data) { return out_->Append(data); }

  /// Emits the still-buffered tail of [copy_flushed_, end).
  Status EmitCopiedRange(uint64_t end) {
    if (end <= copy_flushed_) return Status::Ok();
    uint64_t from = std::max(copy_flushed_, win_.base());
    std::string_view view = win_.View(from, static_cast<size_t>(end - from));
    if (view.size() < end - from) {
      return Status::Internal("copy region not resident");
    }
    copy_flushed_ = end;
    return Emit(view.substr(0, static_cast<size_t>(end - from)));
  }

  /// Per-query EmitCopiedRange: flushes the still-buffered tail of query
  /// qy's active copy region into its own sink. The lower clamp to
  /// win_.base() keeps a safe-point rollback from re-emitting bytes an
  /// eviction already pushed out (exactly as in the aggregate path).
  Status EmitCopiedRangeFor(size_t qy, uint64_t end) {
    if (end <= mq_copy_flushed_[qy]) return Status::Ok();
    uint64_t from = std::max(mq_copy_flushed_[qy], win_.base());
    std::string_view view = win_.View(from, static_cast<size_t>(end - from));
    if (view.size() < end - from) {
      return Status::Internal("copy region not resident");
    }
    mq_copy_flushed_[qy] = end;
    return mq_sinks_[qy]->Append(
        view.substr(0, static_cast<size_t>(end - from)));
  }

  /// Flushes every actively-copying query up to `end` (suspension
  /// hand-off), then re-establishes the aggregate invariant.
  Status FlushAllQueryCopies(uint64_t end) {
    for (size_t qy = 0; qy < mq_copy_depth_.size(); ++qy) {
      if (mq_copy_depth_[qy] == 0) continue;
      SMPX_RETURN_IF_ERROR(EmitCopiedRangeFor(qy, end));
    }
    RecomputeMqCopyFlushed(end);
    return Status::Ok();
  }

  /// Aggregate invariant on multi-query sessions: copy_flushed_ is the
  /// minimum flushed position over actively-copying queries (so
  /// SessionCheckpoint::feed_begin and shard hand-off checks work
  /// unchanged); `fallback` when no query is copying.
  void RecomputeMqCopyFlushed(uint64_t fallback) {
    uint64_t mn = std::numeric_limits<uint64_t>::max();
    for (size_t qy = 0; qy < mq_copy_depth_.size(); ++qy) {
      if (mq_copy_depth_[qy] > 0) mn = std::min(mn, mq_copy_flushed_[qy]);
    }
    copy_flushed_ = mn == std::numeric_limits<uint64_t>::max() ? fallback
                                                               : mn;
  }

  Step Drive();
  bool SkipProlog();
  uint64_t SkipPast(uint64_t from, std::string_view term);
  uint64_t SkipDoctype(uint64_t from);
  Status HandleMatch(uint64_t pos, int* next_unsearched);
  Status HandleMatchLegacy(uint64_t pos, int* next_unsearched);
  Status FinishMatch(uint64_t pos, uint64_t tag_end, bool closing,
                     bool bachelor, bool counted_tag, int next_state,
                     int close_state);
  Status ApplyAction(int state, uint64_t tag_begin, uint64_t tag_end,
                     bool closing, bool bachelor);
  Status ApplyMulti(int state, uint64_t tag_begin, uint64_t tag_end,
                    bool closing, bool bachelor, int suppress_open_state);

  /// Attributes this accepted transition to every query that moved on the
  /// entered product state's token (QueryRunStats::matches).
  void BumpQueryMatches(int state) {
    const uint64_t* moved = mq_->MaskAt(mq_->moved, state);
    for (int w = 0; w < mq_->words; ++w) {
      uint64_t bits = moved[w];
      while (bits != 0) {
        ++mq_matches_[static_cast<size_t>(w) * 64 +
                      static_cast<size_t>(__builtin_ctzll(bits))];
        bits &= bits - 1;
      }
    }
  }

  /// Common tail of the false-match returns: a scan that ran into the end
  /// of a non-final chunk may just be truncated, so suspend instead of
  /// rejecting (the re-run sees the full construct).
  Status Reject(int* result) {
    if (MayResume() && scan_hit_end_) *result = kNeedInput;
    return Status::Ok();
  }

  const RuntimeTables& tables_;
  FeedStream feed_;
  SlidingWindow win_;
  OutputSink* out_;
  RunStats* stats_;
  RunStats local_stats_;
  EngineOptions opts_;
  const bool interned_;
  const bool suspendable_;
  bool final_input_;

  int q_ = 0;
  uint64_t cursor_ = 0;        // next position to search from
  uint64_t nesting_depth_ = 0; // open <t> balance inside an opaque region
  int copy_depth_ = 0;
  uint64_t copy_flushed_ = 0;  // everything below this is already emitted
  bool prolog_done_ = false;
  bool jump_pending_ = true;   // J[q] not yet applied for this state entry
  bool scan_hit_end_ = false;  // a tag scan ran past the resident input
  bool drained_cleanly_ = true;
  uint64_t lock_floor_ = 0;
  Snapshot snap_;
  Status status_;
  std::vector<bool> visited_;

  // Multi-query mode (mq_ non-null): per-query sinks, copy regions, and
  // match counters. The aggregate copy_depth_ above counts the actively
  // copying queries, so every copy_depth_ == 0 check (hand-off cleanliness,
  // evict short-circuit) keeps its meaning.
  const MultiQueryInfo* mq_ = nullptr;
  std::vector<OutputSink*> mq_sinks_;
  std::vector<QueryRunStats>* mq_qstats_ = nullptr;
  std::vector<int> mq_copy_depth_;
  std::vector<uint64_t> mq_copy_flushed_;
  std::vector<uint64_t> mq_matches_;

  void MarkVisited() {
    if (!visited_[static_cast<size_t>(q_)]) {
      visited_[static_cast<size_t>(q_)] = true;
    }
  }
};

/// Scans past the next occurrence of `term` (2-3 bytes) starting at `from`,
/// running the vectorized pattern scan over whole resident spans. Returns
/// the position one past the terminator; past end-of-input when
/// unterminated.
uint64_t PrefilterSession::Impl::SkipPast(uint64_t from,
                                          std::string_view term) {
  const size_t tn = term.size();
  uint64_t p = from;
  for (;;) {
    Lock(p);
    std::string_view span = win_.View(p, tn);
    if (span.size() < tn) return win_.limit() + tn;  // unterminated
    const size_t hit = simd::FindPattern(span.data(), span.size(), term);
    if (hit != span.size()) return p + hit + tn;
    // Keep tn-1 tail bytes resident so a straddling terminator is seen
    // (span.size() >= tn here -- shorter spans returned above).
    p += span.size() - (tn - 1);
  }
}

/// Scans past the '>' that closes the DOCTYPE starting at `from` (the
/// position just after "<!"), honoring [...] internal subsets and quoted
/// literals (entity/system ids can contain '>'). Bitmap-driven: one
/// vectorized any-of classification finds the earliest of the five
/// structural bytes per step, so pathological multi-megabyte internal
/// subsets cost one linear sweep. Returns a position past the window limit
/// when unterminated.
uint64_t PrefilterSession::Impl::SkipDoctype(uint64_t from) {
  static constexpr simd::ByteSet kStructural("[]>\"'");
  uint64_t p = from;
  int bracket = 0;
  for (;;) {
    Lock(p);
    std::string_view span = win_.RefillAt(p);
    if (span.empty()) return win_.limit() + 1;  // unterminated
    size_t r = 0;
    bool restarted = false;
    while (r < span.size()) {
      const size_t hit =
          r + simd::FindAny(span.data() + r, span.size() - r, kStructural);
      if (hit == span.size()) break;  // nothing structural in this span
      const char hc = span[hit];
      if (hc == '[') {
        ++bracket;
        r = hit + 1;
      } else if (hc == ']') {
        --bracket;
        r = hit + 1;
      } else if (hc == '>') {
        if (bracket <= 0) return p + hit + 1;
        r = hit + 1;
      } else {
        // Quoted literal: skip to the matching quote, across spans. The
        // refills may slide or reallocate the buffer, so `span` is
        // re-acquired afterwards; when the literal ends inside it the
        // structural scan continues in place, otherwise it restarts past
        // the literal.
        uint64_t q = p + hit + 1;
        for (;;) {
          Lock(p);  // keep the whole construct resident in push mode
          std::string_view qs = win_.RefillAt(q);
          if (qs.empty()) return win_.limit() + 1;  // unterminated literal
          const size_t e = simd::FindByte(qs.data(), qs.size(),
                                          static_cast<unsigned char>(hc));
          if (e != qs.size()) {
            q += e + 1;
            break;
          }
          q += qs.size();
        }
        // The refill may have slid or reallocated the buffer; re-acquire
        // the structural span before continuing in place.
        span = win_.Span(p);
        if (!span.empty() && q - p < span.size()) {
          r = static_cast<size_t>(q - p);
        } else {
          p = q;
          restarted = true;
          break;
        }
      }
    }
    if (!restarted) p += span.size();
  }
}

/// Returns true when prolog scanning is complete (cursor_ rests on the
/// first element tag, on definitive non-prolog content, or at true EOF);
/// false when a non-final chunk ended mid-construct (cursor_ stays at the
/// construct start so the next chunk re-scans it).
bool PrefilterSession::Impl::SkipProlog() {
  // Only straight-line scanning at the very beginning of the document;
  // stops at the first '<' that opens an element tag. All scans run over
  // whole resident spans; the lock advances so the window never grows
  // (beyond one construct in push mode).
  for (;;) {
    for (;;) {  // inter-construct whitespace
      lock_floor_ = cursor_;
      Lock(cursor_);
      std::string_view span = win_.RefillAt(cursor_);
      if (span.empty()) return !MayResume();
      size_t i = 0;
      while (i < span.size() && IsXmlWhitespace(span[i])) ++i;
      cursor_ += i;
      if (i < span.size()) break;
    }
    lock_floor_ = cursor_;  // construct start: the restart point
    if (win_.Ensure(cursor_, 2) < 2) {
      // One trailing byte. In push mode it may grow into "<?xml..."; in a
      // final run the keyword search deals with it (historical behavior).
      return !MayResume();
    }
    if (win_.At(cursor_) != '<') return true;
    char next = win_.At(cursor_ + 1);
    uint64_t end = 0;
    if (next == '?') {
      end = SkipPast(cursor_ + 2, "?>");
    } else if (next == '!') {
      // Comment or DOCTYPE (with optional [...] internal subset).
      if (win_.Ensure(cursor_, 4) >= 4 && win_.At(cursor_ + 2) == '-' &&
          win_.At(cursor_ + 3) == '-') {
        end = SkipPast(cursor_ + 4, "-->");
      } else {
        end = SkipDoctype(cursor_ + 2);
      }
    } else {
      return true;  // an element tag
    }
    if (end > win_.limit() && MayResume()) return false;  // truncated
    cursor_ = end;
  }
}

Status PrefilterSession::Impl::ApplyAction(int state, uint64_t tag_begin,
                                           uint64_t tag_end, bool closing,
                                           bool bachelor) {
  const DfaState& st = tables_.states[static_cast<size_t>(state)];
  switch (st.action) {
    case Action::kNop:
      return Status::Ok();
    case Action::kCopyTag:
    case Action::kCopyTagAtts:
      if (copy_depth_ > 0) return Status::Ok();  // already inside a copy
      if (closing) return Emit(st.emit_tag);
      if (st.action == Action::kCopyTagAtts) {
        std::string_view raw = win_.View(
            tag_begin, static_cast<size_t>(tag_end + 1 - tag_begin));
        if (raw.size() < tag_end + 1 - tag_begin) {
          return Status::Internal("tag bytes not resident for copy");
        }
        return Emit(raw.substr(0,
                               static_cast<size_t>(tag_end + 1 - tag_begin)));
      }
      return Emit(bachelor ? st.emit_bachelor : st.emit_tag);
    case Action::kCopyOn:
      if (copy_depth_++ == 0) copy_flushed_ = tag_begin;
      return Status::Ok();
    case Action::kCopyOff:
      if (copy_depth_ == 0) {
        // Defensive: unmatched copy-off (possible only on invalid input);
        // emit the closing tag so output nesting stays balanced.
        return Emit(st.emit_tag);
      }
      if (--copy_depth_ == 0) {
        return EmitCopiedRange(tag_end + 1);
      }
      return Status::Ok();
  }
  return Status::Ok();
}

/// Per-query mirror of ApplyAction over the product state's action masks:
/// each query set in a mask performs its own action against its own sink
/// and copy region. Masks are mutually exclusive per query (a component
/// contributes exactly one action per state), so the per-mask loops never
/// touch the same query twice. `suppress_open_state` >= 0 marks the close
/// half of a bachelor pair: queries whose opening action already emitted
/// the "<name/>" form skip the duplicate "</name>" (the single-query
/// engine's bachelor suppression, per query).
Status PrefilterSession::Impl::ApplyMulti(int state, uint64_t tag_begin,
                                          uint64_t tag_end, bool closing,
                                          bool bachelor,
                                          int suppress_open_state) {
  const MultiQueryInfo& mq = *mq_;
  const DfaState& st = tables_.states[static_cast<size_t>(state)];
  const int words = mq.words;
  const uint64_t* copy_tag = mq.MaskAt(mq.copy_tag, state);
  const uint64_t* copy_tag_atts = mq.MaskAt(mq.copy_tag_atts, state);
  const uint64_t* copy_on = mq.MaskAt(mq.copy_on, state);
  const uint64_t* copy_off = mq.MaskAt(mq.copy_off, state);
  const uint64_t* sup_open = nullptr;
  if (suppress_open_state >= 0) {
    // Suppression needs "open action was kCopyTag/kCopyTagAtts"; fold the
    // two masks up front.
    sup_open = mq.MaskAt(mq.copy_tag, suppress_open_state);
  }
  const uint64_t* sup_open_atts =
      suppress_open_state >= 0
          ? mq.MaskAt(mq.copy_tag_atts, suppress_open_state)
          : nullptr;

  // Pass 1: copy-tag emissions. The raw-tag view is fetched at most once;
  // passes are separated because the copy-off pass below may refill the
  // window (EmitCopiedRangeFor) and invalidate it.
  std::string_view raw;
  bool raw_fetched = false;
  for (int w = 0; w < words; ++w) {
    uint64_t bits = copy_tag[w] | copy_tag_atts[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      bits &= bits - 1;
      const size_t qy =
          static_cast<size_t>(w) * 64 + static_cast<size_t>(bit);
      const uint64_t qbit = 1ull << bit;
      if (mq_copy_depth_[qy] > 0) continue;  // inside this query's copy
      if (closing) {
        if (sup_open != nullptr && (copy_tag[w] & qbit) != 0 &&
            ((sup_open[w] | sup_open_atts[w]) & qbit) != 0) {
          // Bachelor pair: this query's opening action already emitted
          // "<name/>"; suppress the duplicate "</name>".
          continue;
        }
        SMPX_RETURN_IF_ERROR(mq_sinks_[qy]->Append(st.emit_tag));
        continue;
      }
      if ((copy_tag_atts[w] & qbit) != 0) {
        if (!raw_fetched) {
          raw = win_.View(tag_begin,
                          static_cast<size_t>(tag_end + 1 - tag_begin));
          if (raw.size() < tag_end + 1 - tag_begin) {
            return Status::Internal("tag bytes not resident for copy");
          }
          raw = raw.substr(0, static_cast<size_t>(tag_end + 1 - tag_begin));
          raw_fetched = true;
        }
        SMPX_RETURN_IF_ERROR(mq_sinks_[qy]->Append(raw));
        continue;
      }
      SMPX_RETURN_IF_ERROR(
          mq_sinks_[qy]->Append(bachelor ? st.emit_bachelor : st.emit_tag));
    }
  }
  // Pass 2: copy-on.
  for (int w = 0; w < words; ++w) {
    uint64_t bits = copy_on[w];
    while (bits != 0) {
      const size_t qy = static_cast<size_t>(w) * 64 +
                        static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (mq_copy_depth_[qy]++ == 0) {
        mq_copy_flushed_[qy] = tag_begin;
        if (copy_depth_++ == 0 || tag_begin < copy_flushed_) {
          copy_flushed_ = tag_begin;
        }
      }
    }
  }
  // Pass 3: copy-off.
  for (int w = 0; w < words; ++w) {
    uint64_t bits = copy_off[w];
    while (bits != 0) {
      const size_t qy = static_cast<size_t>(w) * 64 +
                        static_cast<size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      if (mq_copy_depth_[qy] == 0) {
        // Defensive: unmatched copy-off (possible only on invalid input);
        // emit the closing tag so output nesting stays balanced.
        SMPX_RETURN_IF_ERROR(mq_sinks_[qy]->Append(st.emit_tag));
        continue;
      }
      if (--mq_copy_depth_[qy] == 0) {
        SMPX_RETURN_IF_ERROR(EmitCopiedRangeFor(qy, tag_end + 1));
        --copy_depth_;
        RecomputeMqCopyFlushed(tag_end + 1);
      }
    }
  }
  return Status::Ok();
}

/// Common tail of both match handlers: performs the state transition(s) and
/// copy actions for an accepted tag.
Status PrefilterSession::Impl::FinishMatch(uint64_t pos, uint64_t tag_end,
                                           bool closing, bool bachelor,
                                           bool counted_tag, int next_state,
                                           int close_state) {
  ++stats_->matches;

  if (counted_tag) {
    if (!closing) {
      if (!bachelor) ++nesting_depth_;
    } else {
      --nesting_depth_;
    }
    cursor_ = tag_end + 1;
    jump_pending_ = true;
    return Status::Ok();
  }

  q_ = next_state;
  nesting_depth_ = 0;
  MarkVisited();
  if (mq_ != nullptr) {
    BumpQueryMatches(q_);
    SMPX_RETURN_IF_ERROR(ApplyMulti(q_, pos, tag_end, closing, bachelor,
                                    /*suppress_open_state=*/-1));
    if (bachelor) {
      // Fire the closing transition too; the product's bachelor successor
      // moves exactly the opening transition's components (see
      // MultiQueryInfo::bachelor_close).
      const int open_state = q_;
      q_ = close_state;
      nesting_depth_ = 0;
      MarkVisited();
      SMPX_RETURN_IF_ERROR(ApplyMulti(q_, pos, tag_end, /*closing=*/true,
                                      /*bachelor=*/false, open_state));
    }
    cursor_ = tag_end + 1;
    jump_pending_ = true;
    return Status::Ok();
  }
  SMPX_RETURN_IF_ERROR(ApplyAction(q_, pos, tag_end, closing, bachelor));
  if (bachelor) {
    // Fire the closing transition too (paper Fig. 4, bachelor case).
    const DfaState& opened = tables_.states[static_cast<size_t>(q_)];
    bool was_copy_tag = opened.action == Action::kCopyTag ||
                        opened.action == Action::kCopyTagAtts;
    q_ = close_state;
    nesting_depth_ = 0;
    MarkVisited();
    const DfaState& closed = tables_.states[static_cast<size_t>(q_)];
    if (was_copy_tag && closed.action == Action::kCopyTag &&
        copy_depth_ == 0) {
      // The opening action already emitted "<name/>"; suppress the
      // duplicate "</name>".
    } else {
      SMPX_RETURN_IF_ERROR(ApplyAction(q_, pos, tag_end, /*closing=*/true,
                                       /*bachelor=*/false));
    }
  }
  cursor_ = tag_end + 1;
  jump_pending_ = true;
  return Status::Ok();
}

/// Interned fast path: the tag name/attribute scan runs pointer loops over
/// whole resident spans (memchr for '>' and quote terminators), and the
/// transition resolves via one hash + one flat array load.
Status PrefilterSession::Impl::HandleMatch(uint64_t pos, int* result) {
  *result = kFalseMatch;
  // Growing view anchored at pos. pos is at or above the lock, so bytes at
  // and after pos stay resident across refills; refills may slide or
  // reallocate the buffer, which is why `span` is re-acquired from the
  // window instead of caching raw pointers.
  std::string_view span = win_.Span(pos);
  auto extend = [this, pos, &span](size_t rel) -> bool {
    if (rel < span.size()) return true;
    span = win_.View(pos, rel + 1);
    if (rel < span.size()) return true;
    scan_hit_end_ = true;
    return false;
  };

  // Parse the tag at pos: "<name" or "</name".
  size_t r = 1;
  if (!extend(r)) return Reject(result);
  bool closing = false;
  if (span[r] == '/') {
    closing = true;
    ++r;
  }
  const size_t name_rel = r;
  for (;;) {
    while (r < span.size() && IsNameChar(span[r])) ++r;
    if (r < span.size() || !extend(r)) break;
  }
  stats_->scan_chars += r;
  if (r == name_rel) return Reject(result);  // "<!", "<?", "< " ...
  const size_t name_len = r - name_rel;
  std::string_view name = span.substr(name_rel, name_len);

  const DfaState& st = tables_.states[static_cast<size_t>(q_)];

  // Resolve the interned id now: the id survives later refills, the view
  // does not. Unknown tags (¶-check rejects, names outside the vocabulary)
  // come back as -1.
  const int32_t id = tables_.interner.Find(name);

  // Recursion support: inside an opaque region, occurrences of the region's
  // own tag are balanced rather than transitioned on; only the closing tag
  // that returns the balance to zero leaves the region.
  const bool counted_tag = st.count_nesting && id >= 0 &&
                           id == st.entry_tag_id &&
                           (!closing || nesting_depth_ > 0);

  int next_state = -1;
  if (!counted_tag) {
    if (id < 0) return Reject(result);  // false match
    next_state = closing ? st.close_next_id[static_cast<size_t>(id)]
                         : st.open_next_id[static_cast<size_t>(id)];
    if (next_state < 0) return Reject(result);  // false match
  }

  // Scan to the end of the tag, skipping quoted attribute values: one
  // vectorized any-of scan finds the earliest of '>' or a quote over the
  // resident span; a quote diverts into a find-the-matching-quote skip.
  // The overwhelmingly common attribute-free tag ("<name>") short-circuits
  // the machinery.
  const size_t scan_start = r;
  if (r < span.size() && span[r] == '>') {
    // '>' directly after the name: never a bachelor (the '/' of "<t/>"
    // terminates the name scan first), no attributes to skip.
    ++stats_->scan_chars;
    if (MayResume() && scan_hit_end_) {
      *result = kNeedInput;
      return Status::Ok();
    }
    *result = kAccepted;
    return FinishMatch(pos, pos + r, closing, /*bachelor=*/false,
                       counted_tag, next_state, /*close_state=*/-1);
  }
  for (;;) {
    if (r >= span.size() && !extend(r)) {
      if (MayResume()) {
        *result = kNeedInput;
        return Status::Ok();
      }
      return Status::ParseError("unterminated tag at offset " +
                                std::to_string(pos));
    }
    static constexpr simd::ByteSet kTagEnd(">\"'");
    const size_t hit =
        r + simd::FindAny(span.data() + r, span.size() - r, kTagEnd);
    if (hit == span.size()) {
      r = span.size();
      continue;
    }
    if (span[hit] == '>') {
      r = hit;
      break;  // position of '>'
    }
    const char qc = span[hit];
    r = hit + 1;
    for (;;) {
      if (r >= span.size() && !extend(r)) {
        if (MayResume()) {
          *result = kNeedInput;
          return Status::Ok();
        }
        return Status::ParseError("unterminated attribute at offset " +
                                  std::to_string(pos));
      }
      const size_t end = simd::FindByte(span.data() + r, span.size() - r,
                                        static_cast<unsigned char>(qc));
      if (end != span.size() - r) {
        r += end + 1;
        break;
      }
      r = span.size();
    }
  }
  const bool bachelor = !closing && span[r - 1] == '/';
  stats_->scan_chars += r - scan_start + 1;
  const uint64_t tag_end = pos + r;  // position of '>'

  if (MayResume() && scan_hit_end_) {
    // The name (or an attribute) scan was cut short by the chunk end; the
    // re-run over the full bytes may resolve differently.
    *result = kNeedInput;
    return Status::Ok();
  }
  *result = kAccepted;

  // For bachelor tags, resolve the closing transition now; the interned id
  // makes this a single array load even after window refills. Multi-query
  // products resolve through the precomputed bachelor successor instead:
  // the regular close edge would also move components that did NOT take
  // the opening transition, but an idle component's independent run never
  // sees the synthetic close inside "<name/>".
  int close_state = -1;
  if (!counted_tag && bachelor) {
    if (mq_ != nullptr) {
      close_state =
          mq_->bachelor_close[static_cast<size_t>(next_state)];
    } else {
      const DfaState& opened =
          tables_.states[static_cast<size_t>(next_state)];
      close_state = opened.close_next_id[static_cast<size_t>(id)];
    }
    if (close_state < 0) {
      std::string_view nm =
          win_.View(pos + name_rel, name_len).substr(0, name_len);
      return Status::ParseError("bachelor tag <" + std::string(nm) +
                                "/> has no closing transition; input "
                                "invalid w.r.t. the DTD");
    }
  }
  return FinishMatch(pos, tag_end, closing, bachelor, counted_tag,
                     next_state, close_state);
}

/// Legacy path (TableOptions::use_map_dispatch): per-byte window access and
/// std::map tag dispatch; kept verbatim as the differential-testing and
/// benchmarking baseline.
Status PrefilterSession::Impl::HandleMatchLegacy(uint64_t pos, int* result) {
  *result = kFalseMatch;
  // The whole scan operates on a view anchored at pos (which is above the
  // lock, so it stays resident); At() re-acquires the view only when the
  // scan outruns the currently buffered bytes.
  std::string_view v = win_.View(pos, 2);
  auto at = [this, pos, &v](uint64_t abs) -> int {
    size_t rel = static_cast<size_t>(abs - pos);
    if (rel < v.size()) return static_cast<unsigned char>(v[rel]);
    if (win_.Ensure(abs, 1) == 0) {
      scan_hit_end_ = true;
      return -1;
    }
    v = win_.View(pos, rel + 1);
    return static_cast<unsigned char>(v[rel]);
  };

  // Parse the tag at pos: "<name" or "</name", then scan to '>' / '/>'.
  uint64_t p = pos + 1;
  bool closing = false;
  int c = at(p);
  if (c < 0) return Reject(result);
  if (c == '/') {
    closing = true;
    ++p;
  }
  uint64_t name_begin = p;
  while ((c = at(p)) >= 0 && IsNameChar(static_cast<char>(c))) ++p;
  stats_->scan_chars += p - pos;
  if (p == name_begin) return Reject(result);  // "<!", "<?", "< " ...
  size_t name_len = static_cast<size_t>(p - name_begin);
  std::string_view name =
      v.substr(static_cast<size_t>(name_begin - pos), name_len);

  const DfaState& st = tables_.states[static_cast<size_t>(q_)];

  bool counted_tag = st.count_nesting && name == st.entry_name &&
                     (!closing || nesting_depth_ > 0);

  // Look the tagname up in the frontier transition maps; reject prefixes of
  // longer names and names with no transition (the paper's (¶) check).
  int next_state = -1;
  if (!counted_tag) {
    auto& map = closing ? st.close_next : st.open_next;
    auto it = map.find(name);
    if (it == map.end()) return Reject(result);  // false match
    next_state = it->second;
  }

  // Scan to the end of the tag, skipping quoted attribute values.
  bool bachelor = false;
  uint64_t scan_start = p;
  for (;;) {
    c = at(p);
    if (c < 0) {
      if (MayResume()) {
        *result = kNeedInput;
        return Status::Ok();
      }
      return Status::ParseError("unterminated tag at offset " +
                                std::to_string(pos));
    }
    if (c == '>') {
      bachelor = !closing && at(p - 1) == '/';
      break;
    }
    if (c == '"' || c == '\'') {
      int quote = c;
      ++p;
      while ((c = at(p)) >= 0 && c != quote) ++p;
      if (c < 0) {
        if (MayResume()) {
          *result = kNeedInput;
          return Status::Ok();
        }
        return Status::ParseError("unterminated attribute at offset " +
                                  std::to_string(pos));
      }
    }
    ++p;
  }
  stats_->scan_chars += p - scan_start + 1;
  uint64_t tag_end = p;  // position of '>'

  if (MayResume() && scan_hit_end_) {
    *result = kNeedInput;
    return Status::Ok();
  }
  *result = kAccepted;

  // For bachelor tags, resolve the closing transition now. The tag-end scan
  // above may have slid or reallocated the window buffer, so `name` must be
  // re-acquired (its bytes are still resident -- they sit above the lock).
  int close_state = -1;
  if (!counted_tag && bachelor) {
    name = win_.View(name_begin, name_len).substr(0, name_len);
    const DfaState& opened = tables_.states[static_cast<size_t>(next_state)];
    auto cit = opened.close_next.find(name);
    if (cit == opened.close_next.end()) {
      return Status::ParseError("bachelor tag <" + std::string(name) +
                                "/> has no closing transition; input "
                                "invalid w.r.t. the DTD");
    }
    close_state = cit->second;
  }
  return FinishMatch(pos, tag_end, closing, bachelor, counted_tag,
                     next_state, close_state);
}

PrefilterSession::Impl::Step PrefilterSession::Impl::Drive() {
  if (!status_.ok()) return Step::kError;
  if (!prolog_done_) {
    drained_cleanly_ = false;  // mid-prolog checkpoints are not hand-offs
    if (!SkipProlog()) return Step::kNeedMore;
    prolog_done_ = true;
  }

  while (!tables_.states[static_cast<size_t>(q_)].is_final) {
    const DfaState& st = tables_.states[static_cast<size_t>(q_)];
    if (st.matcher == nullptr) {
      status_ =
          Status::Internal("stuck in non-final state without vocabulary");
      return Step::kError;
    }
    // Initial jump (paper table J), once per state entry (a suspension
    // re-enters this loop without a new entry).
    if (jump_pending_) {
      jump_pending_ = false;
      if (st.jump > 0) {
        cursor_ += st.jump;
        ++stats_->initial_jumps;
        stats_->initial_jump_chars += st.jump;
      }
    }
    // Search for the closest frontier keyword, refilling the window as
    // needed; the overlap keeps partially-seen keywords matchable.
    int handled = kFalseMatch;
    for (;;) {
      if (opts_.cancel != nullptr &&
          opts_.cancel->load(std::memory_order_relaxed)) {
        status_ = Status::Cancelled("session cancelled at safe point");
        return Step::kError;
      }
      MarkSafePoint();
      Lock(cursor_);
      std::string_view view = win_.View(cursor_, st.max_keyword);
      if (!view.empty()) {
        // Counted per Search call, inside the retry loop: false-match
        // retries and window refills each run a fresh search.
        if (st.keywords.size() == 1) {
          ++stats_->bm_searches;
        } else {
          ++stats_->cw_searches;
        }
        strmatch::Match m = st.matcher->Search(view, 0, &stats_->search);
        if (m.found()) {
          uint64_t pos = cursor_ + m.pos;
          scan_hit_end_ = false;
          Status s = interned_ ? HandleMatch(pos, &handled)
                               : HandleMatchLegacy(pos, &handled);
          if (!s.ok()) {
            status_ = s;
            return Step::kError;
          }
          if (handled == kNeedInput) {
            // The candidate scan was truncated by the chunk end: roll back
            // to the safe point and re-run it when more bytes arrive.
            RestoreSafePoint();
            drained_cleanly_ = false;
            return Step::kNeedMore;
          }
          if (handled == kAccepted) break;
          ++stats_->false_matches;
          cursor_ = pos + 1;
          continue;
        }
      }
      // No match in the resident view. Advance to the window tail that
      // could still hold a partially-seen keyword, release the lock up to
      // there, then probe for more input (slide-only, never grows).
      uint64_t limit = win_.limit();
      if (MayResume() && win_.eof_seen()) {
        // The chunk feed is drained: everything up to `limit` has been
        // searched for complete occurrences. Suspend keeping the whole
        // keyword-length overlap tail -- without the serial path's forced
        // one-byte progress, which would skip a keyword that the next
        // chunk completes.
        uint64_t next = limit > st.max_keyword - 1
                            ? limit - (st.max_keyword - 1)
                            : cursor_;
        cursor_ = std::max(cursor_, next);
        lock_floor_ = cursor_;
        Lock(cursor_);
        drained_cleanly_ = true;
        return Step::kNeedMore;
      }
      uint64_t next = limit > st.max_keyword - 1
                          ? limit - (st.max_keyword - 1)
                          : cursor_ + 1;
      cursor_ = std::max(cursor_ + 1, next);
      lock_floor_ = cursor_;
      Lock(cursor_);
      if (win_.AtEnd(cursor_)) {
        if (MayResume()) {
          // More input arrived between the view and this probe; loop.
          continue;
        }
        status_ = Status::ParseError(
            "keyword not found before end of input (document invalid "
            "w.r.t. the DTD?)");
        return Step::kError;
      }
    }
    if (!status_.ok()) return Step::kError;  // surfaced from the evict hook
  }
  return Step::kDone;
}

PrefilterSession::PrefilterSession(const RuntimeTables& tables,
                                   OutputSink* out, RunStats* stats,
                                   const EngineOptions& opts,
                                   const SessionCheckpoint* start)
    : impl_(new Impl(tables, /*in=*/nullptr, out, stats, opts, start)) {}

PrefilterSession::PrefilterSession(const RuntimeTables& tables,
                                   std::vector<OutputSink*> query_sinks,
                                   std::vector<QueryRunStats>* query_stats,
                                   RunStats* stats,
                                   const EngineOptions& opts,
                                   const SessionCheckpoint* start)
    : impl_(new Impl(tables, /*in=*/nullptr, /*out=*/nullptr, stats, opts,
                     start, /*multi_mode=*/true, std::move(query_sinks),
                     query_stats)) {}

PrefilterSession::~PrefilterSession() = default;

Status PrefilterSession::Resume(std::string_view chunk) {
  return impl_->Resume(chunk);
}

Status PrefilterSession::Finish() { return impl_->Finish(); }

bool PrefilterSession::finished() const { return impl_->finished(); }

SessionCheckpoint PrefilterSession::checkpoint() const {
  return impl_->checkpoint();
}

bool PrefilterSession::drained_cleanly() const {
  return impl_->drained_cleanly();
}

void PrefilterSession::FinalizeStats() { impl_->FinalizeStats(); }

const std::vector<bool>& PrefilterSession::visited() const {
  return impl_->visited();
}

Status RunEngine(const RuntimeTables& tables, InputStream* in,
                 OutputSink* out, RunStats* stats,
                 const EngineOptions& opts) {
  if (tables.states.empty()) {
    return Status::InvalidArgument("empty runtime tables");
  }
  PrefilterSession::Impl engine(tables, in, out, stats, opts,
                                /*start=*/nullptr);
  return engine.Run();
}

}  // namespace smpx::core
