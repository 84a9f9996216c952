#include "core/engine.h"

#include <algorithm>
#include <limits>
#include <optional>
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

}  // namespace

/// The engine proper: mutable run state shared by the helpers below. Fed
/// chunks run resumably (suspension via a stats snapshot at the
/// per-candidate safe points) until Finish declares the input complete;
/// from then on the run cannot suspend and needs no snapshots.
class PrefilterSession::Impl {
 public:
  enum class Step { kDone, kNeedMore, kError };

  /// `sinks` holds `num_sinks` sinks, one per unique query
  /// (QueryCount(tables), MultiQueryInfo order).
  Impl(const RuntimeTables& tables, OutputSink* const* sinks,
       size_t num_sinks, std::vector<QueryRunStats>* query_stats,
       RunStats* stats, const EngineOptions& opts,
       const SessionCheckpoint* start)
      : tables_(tables),
        win_(opts.window_capacity,
             start != nullptr ? start->feed_begin() : 0),
        stats_(stats != nullptr ? stats : &local_stats_),
        query_stats_(query_stats),
        opts_(opts),
        interned_(tables.interned_dispatch),
        mq_(tables.multi.get()) {
    win_.set_evict_fn([this](uint64_t begin, std::string_view data) {
      OnEvict(begin, data);
    });
    // Invalid construction makes the session inert: Resume/Finish surface
    // status_, finished() reports false, nothing ever indexes the tables.
    status_ = CheckConstruction(tables_, num_sinks, start);
    visited_.assign(std::max<size_t>(tables_.states.size(), 1), false);
    if (!status_.ok()) {
      prolog_done_ = true;
      return;
    }
    // Empty per-query vectors: every query starts from the aggregate
    // fields (CheckConstruction allows that for one query, or for several
    // when none is copying).
    const bool per_query = start != nullptr && !start->mq_copy_depth.empty();
    queries_.resize(num_sinks);
    for (size_t qy = 0; qy < num_sinks; ++qy) {
      QueryState& qs = queries_[qy];
      qs.sink = sinks[qy];
      if (per_query) {
        qs.copy_depth = start->mq_copy_depth[qy];
        qs.copy_flushed = start->mq_copy_flushed[qy];
      } else if (start != nullptr) {
        qs.copy_depth = start->copy_depth;
        qs.copy_flushed = start->copy_flushed;
      }
    }
    if (start != nullptr) {
      q_ = start->state;
      cursor_ = start->cursor;
      nesting_depth_ = start->nesting_depth;
      // The checkpoint says whether a prolog construct is still pending
      // and whether the current state's initial jump was already applied
      // (re-applying a consumed jump would skip live bytes).
      prolog_done_ = start->prolog_done;
      jump_pending_ = start->jump_pending;
    } else {
      q_ = tables_.initial;
    }
    if (start == nullptr || opts_.mark_start_state_visited) MarkVisited();
    lock_floor_ = cursor_;
  }

  Status Resume(std::string_view chunk) {
    if (!status_.ok()) return status_;
    if (finished()) return Status::Ok();  // trailing bytes are ignored
    win_.Feed(chunk);
    Step s = Drive();
    if (s == Step::kError) return status_;
    if (s == Step::kNeedMore) {
      // The window may point into `chunk`, which the caller may reuse once
      // we return; a suspended session keeps its own copy of what it holds.
      win_.Materialize();
      // Hand-off invariant: everything below checkpoint().feed_begin()
      // has been emitted, so a successor session never needs our buffered
      // bytes. The flush is clamped to the delivered input -- an initial
      // jump can park the cursor beyond it, and those copy bytes (not yet
      // received) are re-fed to the successor via feed_begin().
      const uint64_t end = std::min(cursor_, win_.limit());
      for (QueryState& qs : queries_) {
        if (qs.copy_depth == 0) continue;
        Status flush = EmitCopiedRange(&qs, end);
        if (!flush.ok()) {
          status_ = flush;
          return status_;
        }
      }
    }
    return Status::Ok();
  }

  Status Finish(std::string_view last) {
    final_input_ = true;
    if (status_.ok() && !finished()) {
      // Feeding an empty `last` would clear the end of input the last
      // Resume saw, and the final scan would probe for bytes again.
      if (!last.empty()) win_.Feed(last);
      Step s = Drive();
      (void)s;  // kError left its status in status_; kNeedMore impossible
    }
    FinalizeStats();
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
    // copy_flushed: the lowest flushed position over the copying queries;
    // with none copying, the latest one, which the next copy-on resets but
    // index entries and cursor tokens still store.
    uint64_t lowest_copying = std::numeric_limits<uint64_t>::max();
    uint64_t latest = 0;
    for (const QueryState& qs : queries_) {
      cp.copy_depth += qs.copy_depth;
      if (qs.copy_depth > 0) {
        lowest_copying = std::min(lowest_copying, qs.copy_flushed);
      }
      latest = std::max(latest, qs.copy_flushed);
    }
    cp.copy_flushed = cp.copy_depth > 0 ? lowest_copying : latest;
    // The aggregates carry one query's state whole.
    if (queries_.size() > 1) {
      for (const QueryState& qs : queries_) {
        cp.mq_copy_depth.push_back(qs.copy_depth);
        cp.mq_copy_flushed.push_back(qs.copy_flushed);
      }
    }
    cp.prolog_done = prolog_done_;
    cp.jump_pending = jump_pending_;
    return cp;
  }

  bool drained_cleanly() const { return drained_cleanly_; }

  void FinalizeStats() {
    stats_->input_bytes = win_.limit() - win_.origin();
    stats_->output_bytes = 0;
    if (query_stats_ != nullptr) query_stats_->clear();
    for (const QueryState& qs : queries_) {
      stats_->output_bytes += qs.sink->bytes_written();
      if (query_stats_ != nullptr) {
        query_stats_->push_back({qs.matches, qs.sink->bytes_written()});
      }
    }
    stats_->window_peak = win_.max_capacity_used();
    stats_->states_visited = 0;
    for (bool v : visited_) {
      if (v) ++stats_->states_visited;
    }
  }

  const std::vector<bool>& visited() const { return visited_; }

 private:
  /// One unique query's output and copy state; single-query tables have
  /// exactly one.
  struct QueryState {
    OutputSink* sink = nullptr;
    int copy_depth = 0;         ///< nesting depth of its active copy regions
    uint64_t copy_flushed = 0;  ///< its copy output is emitted below this
    uint64_t matches = 0;       ///< accepted transitions it took
  };

  /// Why a session over `tables` writing `sinks` outputs from `start`
  /// cannot run; Ok when it can.
  static Status CheckConstruction(const RuntimeTables& tables, size_t sinks,
                                  const SessionCheckpoint* start) {
    if (tables.states.empty()) {
      return Status::InvalidArgument("empty runtime tables");
    }
    if (start != nullptr &&
        (start->state < 0 ||
         static_cast<size_t>(start->state) >= tables.states.size())) {
      return Status::InvalidArgument("checkpoint state out of range");
    }
    if (tables.multi != nullptr && !tables.interned_dispatch) {
      return Status::InvalidArgument(
          "multi-query tables require interned dispatch");
    }
    if (sinks != QueryCount(tables)) {
      return Status::InvalidArgument(
          "session needs one sink per unique query (" +
          std::to_string(QueryCount(tables)) + "), got " +
          std::to_string(sinks));
    }
    if (start == nullptr) return Status::Ok();
    if (!start->mq_copy_depth.empty() &&
        (start->mq_copy_depth.size() != sinks ||
         start->mq_copy_flushed.size() != sinks)) {
      return Status::InvalidArgument(
          "checkpoint per-query copy state does not match the query mix");
    }
    if (start->mq_copy_depth.empty() && start->copy_depth > 0 && sinks > 1) {
      return Status::InvalidArgument(
          "multi-query checkpoint with active copies needs per-query copy "
          "state");
    }
    return Status::Ok();
  }

  /// The one reader of table T. Calls act(qy, action, opened) for every
  /// query qy that took `state`'s entry token, with its action on entering
  /// `state` and its action at `open_state` (the opening half of a bachelor
  /// pair; kNop when open_state < 0). On single-query tables the one query
  /// takes every accepted tag and performs DfaState::action. Product tables
  /// keep per-query masks (MultiQueryInfo; their shared DfaState::action is
  /// always kNop), where only a query that moved can act.
  template <typename Fn>
  Status ForEachMovedQuery(int state, int open_state, Fn&& act) const {
    if (mq_ == nullptr) {
      return act(size_t{0}, tables_.states[static_cast<size_t>(state)].action,
                 open_state >= 0
                     ? tables_.states[static_cast<size_t>(open_state)].action
                     : Action::kNop);
    }
    const MultiQueryInfo& mq = *mq_;
    // Query 64 * w + i's action in the masks of state `s`.
    auto action_at = [&mq](int s, int w, uint64_t bit) {
      if ((mq.MaskAt(mq.copy_tag, s)[w] & bit) != 0) return Action::kCopyTag;
      if ((mq.MaskAt(mq.copy_tag_atts, s)[w] & bit) != 0) {
        return Action::kCopyTagAtts;
      }
      if ((mq.MaskAt(mq.copy_on, s)[w] & bit) != 0) return Action::kCopyOn;
      if ((mq.MaskAt(mq.copy_off, s)[w] & bit) != 0) return Action::kCopyOff;
      return Action::kNop;
    };
    for (int w = 0; w < mq.words; ++w) {
      const uint64_t acting =
          mq.MaskAt(mq.copy_tag, state)[w] |
          mq.MaskAt(mq.copy_tag_atts, state)[w] |
          mq.MaskAt(mq.copy_on, state)[w] | mq.MaskAt(mq.copy_off, state)[w];
      for (uint64_t bits = mq.MaskAt(mq.moved, state)[w]; bits != 0;
           bits &= bits - 1) {
        const int b = __builtin_ctzll(bits);
        const uint64_t bit = uint64_t{1} << b;
        SMPX_RETURN_IF_ERROR(act(
            static_cast<size_t>(w) * 64 + static_cast<size_t>(b),
            (acting & bit) != 0 ? action_at(state, w, bit) : Action::kNop,
            open_state >= 0 ? action_at(open_state, w, bit) : Action::kNop));
      }
    }
    return Status::Ok();
  }

  /// True until Finish: more chunks may still arrive, so an exhausted scan
  /// means "suspend", not "the document ends here".
  bool MayResume() const { return !final_input_; }

  /// set_lock with a floor: while the session may suspend, the bytes from
  /// the last safe point onward must stay resident so a restored attempt
  /// can re-scan them.
  void Lock(uint64_t pos) {
    win_.set_lock(MayResume() ? std::min(pos, lock_floor_) : pos);
  }

  /// Marks the current position as a safe point: suspension at or after it
  /// resumes from here. Also the lock floor (see Lock). Only the stats need
  /// a snapshot: a truncated candidate scan returns kNeedInput before
  /// FinishMatch touches the state, cursor, nesting or copy depths, and the
  /// one other change an eviction makes -- flushing copy bytes and moving
  /// copy_flushed past them -- is real output that Resume's hand-off flush
  /// continues from.
  void MarkSafePoint() {
    lock_floor_ = cursor_;
    if (MayResume()) snap_stats_ = *stats_;
  }

  void RestoreSafePoint() { *stats_ = snap_stats_; }

  // Incremental flush of the active copy regions when the window slides.
  void OnEvict(uint64_t begin, std::string_view data) {
    const uint64_t end = begin + data.size();
    for (QueryState& qs : queries_) {
      if (qs.copy_depth == 0 || end <= qs.copy_flushed) continue;
      const uint64_t from = std::max(begin, qs.copy_flushed);
      Status s = qs.sink->Append(
          data.substr(static_cast<size_t>(from - begin),
                      static_cast<size_t>(end - from)));
      if (!s.ok() && status_.ok()) status_ = s;
      qs.copy_flushed = end;
    }
  }

  /// Emits the still-buffered tail of `qs`'s copy region below `end`. The
  /// lower clamp to win_.base() never re-emits bytes an eviction already
  /// pushed out.
  Status EmitCopiedRange(QueryState* qs, uint64_t end) {
    if (end <= qs->copy_flushed) return Status::Ok();
    uint64_t from = std::max(qs->copy_flushed, win_.base());
    std::string_view view = win_.View(from, static_cast<size_t>(end - from));
    if (view.size() < end - from) {
      return Status::Internal("copy region not resident");
    }
    qs->copy_flushed = end;
    return qs->sink->Append(view.substr(0, static_cast<size_t>(end - from)));
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
  Status ApplyAction(QueryState* qs, Action action, Action opened,
                     const DfaState& st, uint64_t tag_begin, uint64_t tag_end,
                     bool closing, bool bachelor);

  /// Fires T[state] for every query that moved into it (ApplyAction per
  /// query) and counts the tag as their match -- once: the close half of a
  /// bachelor pair opened at `open_state` >= 0 is the same match.
  Status ApplyActions(int state, uint64_t tag_begin, uint64_t tag_end,
                      bool closing, bool bachelor, int open_state) {
    const DfaState& st = tables_.states[static_cast<size_t>(state)];
    return ForEachMovedQuery(
        state, open_state, [&](size_t qy, Action action, Action opened) {
          QueryState& qs = queries_[qy];
          if (open_state < 0) ++qs.matches;
          return ApplyAction(&qs, action, opened, st, tag_begin, tag_end,
                             closing, bachelor);
        });
  }

  /// Common tail of the false-match returns: a scan that ran into the end
  /// of a non-final chunk may just be truncated, so suspend instead of
  /// rejecting (the re-run sees the full construct).
  Status Reject(int* result) {
    if (MayResume() && scan_hit_end_) *result = kNeedInput;
    return Status::Ok();
  }

  const RuntimeTables& tables_;
  SlidingWindow win_;
  RunStats* stats_;
  RunStats local_stats_;
  std::vector<QueryRunStats>* query_stats_;
  EngineOptions opts_;
  const bool interned_;
  bool final_input_ = false;  // Finish was called: no suspension from here
  const MultiQueryInfo* mq_;  // non-null on product tables

  int q_ = 0;
  uint64_t cursor_ = 0;        // next position to search from
  uint64_t nesting_depth_ = 0; // open <t> balance inside an opaque region
  bool prolog_done_ = false;
  bool jump_pending_ = true;   // J[q] not yet applied for this state entry
  bool scan_hit_end_ = false;  // a tag scan ran past the resident input
  bool drained_cleanly_ = true;
  uint64_t lock_floor_ = 0;
  RunStats snap_stats_;        // stats at the last safe point
  Status status_;
  std::vector<bool> visited_;
  std::vector<QueryState> queries_;

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
          Lock(p);  // keep the whole construct resident while resumable
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
  // (beyond one construct while the session may suspend).
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
      // One trailing byte. Before Finish it may grow into "<?xml..."; in a
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

/// Performs `action` for one query on entering `st` by the tag at
/// [tag_begin, tag_end], against the query's own sink and copy region.
/// `opened` is the query's action at the opening half of a bachelor pair
/// (kNop otherwise): a query whose opening action already emitted
/// "<name/>" skips the duplicate "</name>".
Status PrefilterSession::Impl::ApplyAction(QueryState* qs, Action action,
                                           Action opened, const DfaState& st,
                                           uint64_t tag_begin,
                                           uint64_t tag_end, bool closing,
                                           bool bachelor) {
  switch (action) {
    case Action::kNop:
      return Status::Ok();
    case Action::kCopyTag:
    case Action::kCopyTagAtts:
      if (qs->copy_depth > 0) return Status::Ok();  // already inside a copy
      if (closing) {
        if (action == Action::kCopyTag &&
            (opened == Action::kCopyTag || opened == Action::kCopyTagAtts)) {
          return Status::Ok();
        }
        return qs->sink->Append(st.emit_tag);
      }
      if (action == Action::kCopyTagAtts) {
        const size_t len = static_cast<size_t>(tag_end + 1 - tag_begin);
        std::string_view raw = win_.View(tag_begin, len);
        if (raw.size() < len) {
          return Status::Internal("tag bytes not resident for copy");
        }
        return qs->sink->Append(raw.substr(0, len));
      }
      return qs->sink->Append(bachelor ? st.emit_bachelor : st.emit_tag);
    case Action::kCopyOn:
      if (qs->copy_depth++ == 0) qs->copy_flushed = tag_begin;
      return Status::Ok();
    case Action::kCopyOff:
      if (qs->copy_depth == 0) {
        // Defensive: unmatched copy-off (possible only on invalid input);
        // emit the closing tag so output nesting stays balanced.
        return qs->sink->Append(st.emit_tag);
      }
      if (--qs->copy_depth == 0) return EmitCopiedRange(qs, tag_end + 1);
      return Status::Ok();
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
    // Only single-query tables count nesting (product compiles reject
    // recursion), so the tag is their one query's match.
    ++queries_[0].matches;
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
  SMPX_RETURN_IF_ERROR(ApplyActions(q_, pos, tag_end, closing, bachelor,
                                    /*open_state=*/-1));
  if (bachelor) {
    // Fire the closing transition too (paper Fig. 4, bachelor case). On
    // product tables the bachelor successor moves exactly the opening
    // transition's components (see MultiQueryInfo::bachelor_close).
    const int open_state = q_;
    q_ = close_state;
    nesting_depth_ = 0;
    MarkVisited();
    SMPX_RETURN_IF_ERROR(ApplyActions(q_, pos, tag_end, /*closing=*/true,
                                      /*bachelor=*/false, open_state));
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
        // keyword-length overlap tail -- without the final run's forced
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
    : impl_(new Impl(tables, &out, 1, nullptr, stats, opts, start)) {}

PrefilterSession::PrefilterSession(const RuntimeTables& tables,
                                   const std::vector<OutputSink*>& query_sinks,
                                   std::vector<QueryRunStats>* query_stats,
                                   RunStats* stats,
                                   const EngineOptions& opts,
                                   const SessionCheckpoint* start)
    : impl_(new Impl(tables, query_sinks.data(), query_sinks.size(),
                     query_stats, stats, opts, start)) {}

PrefilterSession::~PrefilterSession() = default;

Status PrefilterSession::Resume(std::string_view chunk) {
  return impl_->Resume(chunk);
}

Status PrefilterSession::Finish(std::string_view last) {
  return impl_->Finish(last);
}

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
  PrefilterSession session(tables, out, stats, opts);
  // Lent pieces are fed one behind, so the last one goes to Finish. Bytes
  // past a final state are neither fed nor read.
  constexpr size_t kLendAll = std::numeric_limits<size_t>::max();
  std::optional<std::string_view> held = in->Lend(kLendAll);
  while (held.has_value() && !held->empty() && !session.finished()) {
    std::optional<std::string_view> next = in->Lend(kLendAll);
    if (next.has_value() && next->empty()) return session.Finish(*held);
    SMPX_RETURN_IF_ERROR(session.Resume(*held));
    held = next;  // std::nullopt: the rest must be read
  }
  if (!held.has_value()) {
    // A stream that cannot lend is read through one reused buffer.
    constexpr size_t kReadBytes = size_t{1} << 20;
    std::unique_ptr<char[]> buf(new char[kReadBytes]);
    while (!session.finished()) {
      SMPX_ASSIGN_OR_RETURN(size_t n, in->Read(buf.get(), kReadBytes));
      if (n == 0) break;
      SMPX_RETURN_IF_ERROR(session.Resume(std::string_view(buf.get(), n)));
    }
  }
  return session.Finish();
}

}  // namespace smpx::core
