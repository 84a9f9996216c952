#include "parallel/shard.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/strings.h"

namespace smpx::parallel {
namespace {

/// Candidate class sentinel: the candidate is never speculated on (e.g. an
/// in-copy candidate over multi-query product tables).
constexpr size_t kNoClass = ~size_t{0};

/// The element name whose tag opens at `pos` ("" unless doc[pos] is '<'
/// followed by a name).
std::string_view TagNameAt(std::string_view doc, uint64_t pos) {
  if (pos >= doc.size() || doc[pos] != '<') return {};
  size_t end = static_cast<size_t>(pos) + 1;
  while (end < doc.size() && !IsXmlWhitespace(doc[end]) && doc[end] != '>' &&
         doc[end] != '/') {
    ++end;
  }
  return doc.substr(static_cast<size_t>(pos) + 1,
                    end - static_cast<size_t>(pos) - 1);
}

}  // namespace

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

  // A boundary that opens a split keyword's element has one statically
  // known entry class; every other boundary is taken for a top-level one
  // and speculates over the classes of the boundary-state analysis.
  seg_keyword_.assign(n, -1);
  bool all_keywords = true;
  for (size_t k = 1; k < n; ++k) {
    seg_keyword_[k] =
        tables_.split_keywords.Find(TagNameAt(doc_, seg_begin_[k]));
    all_keywords = all_keywords && seg_keyword_[k] >= 0;
  }

  // Collapse the static candidate set into behavior classes; candidates
  // whose vocabulary and transitions coincide (they differ only in entry
  // actions, which never re-fire at a resume point) share one speculative
  // run per segment. A candidate's entry copy depth is part of the class
  // key: an attempt is seeded with it, and a session resumed with one
  // active copy behaves observably differently (emits the segment) from a
  // depth-0 resume of the same state.
  const std::vector<int>& boundary_states = tables_.boundary_states;
  class_of_.assign(boundary_states.size(), kNoClass);
  if (!all_keywords) {
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
               core::SameRuntimeBehavior(tables_, class_reps_[c],
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
  static_spec_ = n > 1 && (all_keywords || !class_reps_.empty());

  results_.resize(n);
  report_.shards = n;
  if (static_spec_) {
    for (size_t k = 1; k < n; ++k) {
      const int kw = seg_keyword_[k];
      const size_t states =
          kw >= 0 ? tables_.split_keywords.states(static_cast<size_t>(kw))
                        .size()
                  : boundary_states.size();
      const size_t classes = kw >= 0 ? 1 : class_reps_.size();
      report_.candidate_states = std::max(report_.candidate_states, states);
      report_.candidate_classes =
          std::max(report_.candidate_classes, classes);
    }
  }
}

SpeculativeResolver::~SpeculativeResolver() { Abort(); }

void SpeculativeResolver::RunSegment(size_t k,
                                     const core::SessionCheckpoint* start,
                                     ShardResult* r, bool mark_start,
                                     const std::atomic<bool>* cancel) {
  const size_t n = segments();
  const uint64_t begin = start != nullptr ? start->feed_begin() : seg_begin_[k];
  const uint64_t end = seg_begin_[k + 1];
  core::EngineOptions eopts = opts_.engine;
  eopts.mark_start_state_visited = mark_start;
  eopts.cancel = cancel;
  // One budget-bounded output segment per query (the aggregate budget
  // split evenly across the queries).
  const size_t m = core::QueryCount(tables_);
  const size_t budget = opts_.max_buffer_bytes != 0
                            ? std::max<size_t>(opts_.max_buffer_bytes / m, 1)
                            : SpillSink::kUnlimited;
  std::vector<OutputSink*> outs;
  for (size_t u = 0; u < m; ++u) {
    auto seg = std::make_unique<SpillSink>(budget, opts_.arena);
    outs.push_back(seg.get());
    if (tables_.multi != nullptr) {
      r->mq_sinks.push_back(std::move(seg));
    } else {
      r->sink = std::move(seg);
    }
  }
  core::PrefilterSession session(tables_, outs, &r->query_stats, &r->stats,
                                 eopts, start);
  // A re-run whose checkpoint lies past the segment's end (an initial jump
  // crossed the whole segment) has nothing to read here.
  r->status = session.Resume(
      begin < end ? doc_.substr(static_cast<size_t>(begin),
                                static_cast<size_t>(end - begin))
                  : std::string_view());
  if (r->status.ok() && k + 1 == n && !session.finished()) {
    r->status = session.Finish();
  } else {
    session.FinalizeStats();
  }
  r->finished = session.finished();
  r->exit = session.checkpoint();
  r->clean = session.drained_cleanly();
  r->visited = session.visited();
  r->read_end = begin + r->stats.input_bytes;
}

void SpeculativeResolver::RunAttempt(Attempt* a) {
  RunSegment(a->segment, a->segment == 0 ? nullptr : &a->entry, &a->result,
             a->mark_start, &a->cancel);
}

void SpeculativeResolver::AddAttempt(size_t k, core::SessionCheckpoint entry,
                                     bool mark_start) {
  auto a = std::make_unique<Attempt>();
  a->segment = k;
  // Speculative entries resume with nothing flushed yet: an in-copy one
  // emits [boundary, ...) itself and the driver owes the predecessor's
  // unflushed tail below the boundary (ShardResult::tail_begin/tail_end,
  // recorded on acceptance).
  entry.cursor = seg_begin_[k];
  entry.copy_flushed = seg_begin_[k];
  a->entry = std::move(entry);
  a->mark_start = mark_start;
  attempts_.push_back(std::move(a));
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
  RunAttempt(&a);
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
    RunAttempt(&a);
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
    // One fully parallel wave: the head plus one run per candidate class
    // of every later segment -- one for a split-keyword boundary. Nothing
    // serializes ahead of the wave, and nothing waits for it either --
    // Resolve picks attempts up as their exits land.
    first_attempt_.assign(n + 1, 0);
    AddAttempt(0, {}, /*mark_start=*/true);
    for (size_t k = 1; k < n; ++k) {
      first_attempt_[k] = attempts_.size();
      core::SessionCheckpoint entry;
      const int kw = seg_keyword_[k];
      if (kw >= 0) {
        // Any member stands for the class; the true entry state's visited
        // bit is the predecessor's, so the representative's is not counted.
        entry.state =
            tables_.split_keywords.states(static_cast<size_t>(kw)).front();
        AddAttempt(k, entry, /*mark_start=*/false);
        continue;
      }
      for (size_t c = 0; c < class_reps_.size(); ++c) {
        entry.state = class_reps_[c];
        entry.copy_depth = class_rep_depths_[c];
        AddAttempt(k, entry, /*mark_start=*/false);
      }
    }
    first_attempt_[n] = attempts_.size();
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
    if (!dynamic_spec_) return;
    dynamic_guess_ = head.exit;
    first_attempt_.assign(n + 1, 0);
    for (size_t k = 1; k < n; ++k) {
      first_attempt_[k] = attempts_.size();
      AddAttempt(k, dynamic_guess_, /*mark_start=*/true);
    }
    first_attempt_[n] = attempts_.size();
  }
  report_.speculated = n - 1;
  report_.attempts = attempts_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ = attempts_.size();
  }
  for (size_t idx = 0; idx < attempts_.size(); ++idx) {
    pool->Submit([this, idx] { AttemptTask(idx); });
  }
}

bool SpeculativeResolver::SkipsLiveBytes(
    size_t k, const core::SessionCheckpoint& exit) const {
  const uint64_t boundary = seg_begin_[k];
  const uint64_t stop = std::min<uint64_t>(exit.cursor, doc_.size());
  if (stop <= boundary) return false;
  // The serial run's initial jump carried its cursor past the boundary: an
  // attempt starting at the boundary stands in for it only if the jumped
  // bytes hold no occurrence (true or false match) of the exit state's
  // keywords, which the attempt would see and the serial run skips.
  const core::DfaState& st = tables_.states[static_cast<size_t>(exit.state)];
  if (st.matcher == nullptr) return false;
  const size_t len = static_cast<size_t>(std::min<uint64_t>(
      stop - boundary + st.max_keyword - 1, doc_.size() - boundary));
  const strmatch::Match m = st.matcher->Search(
      doc_.substr(static_cast<size_t>(boundary), len), 0, nullptr);
  return m.found() && m.pos < stop - boundary;
}

size_t SpeculativeResolver::MatchingAttempt(size_t k,
                                            const ShardResult& prev) const {
  // Why an entry match suffices: a clean drain means no keyword completed
  // in the overlap tail, and no keyword can straddle the boundary's '<'
  // (keywords contain '<' only at position 0), so state, copy depth and
  // opaque nesting are all constant from the exit cursor through the
  // boundary -- (state, depth, nesting 0) IS the serial engine's entry
  // configuration there, unless an initial jump carried the cursor past
  // the boundary (SkipsLiveBytes). Multi-query product tables keep the
  // re-run fallback when copies are active: a candidate would need the
  // full per-query depth vector, which the static analysis does not
  // enumerate.
  const core::SessionCheckpoint& exit = prev.exit;
  if (!prev.clean || exit.nesting_depth != 0 ||
      (exit.copy_depth != 0 && tables_.multi != nullptr) ||
      SkipsLiveBytes(k, exit)) {
    return kNoClass;
  }
  if (dynamic_spec_) {
    return exit.state == dynamic_guess_.state &&
                   exit.copy_depth == dynamic_guess_.copy_depth
               ? 0
               : kNoClass;
  }
  if (!static_spec_) return kNoClass;
  if (seg_keyword_[k] >= 0) {
    const std::vector<int>& members =
        tables_.split_keywords.states(static_cast<size_t>(seg_keyword_[k]));
    return exit.copy_depth == 0 &&
                   std::binary_search(members.begin(), members.end(),
                                      exit.state)
               ? 0
               : kNoClass;
  }
  const std::vector<int>& boundary_states = tables_.boundary_states;
  const std::vector<int>& depths = tables_.boundary_copy_depths;
  for (size_t c = 0; c < boundary_states.size(); ++c) {
    const int depth = c < depths.size() ? depths[c] : 0;
    if (boundary_states[c] == exit.state && depth == exit.copy_depth) {
      return class_of_[c];
    }
  }
  return kNoClass;
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
  // Accept the speculative attempt whose assumed entry matches the
  // predecessor's actual hand-off; otherwise re-run the segment from the
  // true checkpoint. Deterministic by construction -- the accepted
  // sequence replays the serial run (early-kill only cancels attempts
  // that were never going to be part of it).
  const size_t first = first_attempt_.empty() ? 0 : first_attempt_[k];
  const size_t count =
      first_attempt_.empty() ? 0 : first_attempt_[k + 1] - first;
  const size_t hit = MatchingAttempt(k, prev);
  if (hit != kNoClass) {
    // Kill the losing attempts of this segment before waiting on the
    // winner: a running loser aborts at its next safe point and frees its
    // buffered output mid-wave.
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t c = 0; c < count; ++c) {
        if (c != hit) KillLocked(attempts_[first + c].get());
      }
    }
    WaitDone(first + hit);
    {
      std::lock_guard<std::mutex> lock(mu_);
      results_[k] = std::move(attempts_[first + hit]->result);
    }
    ShardResult& r = results_[k];
    // An attempt that took no transition still sits in its assumed entry
    // state, which may be another member of the class than the serial
    // run's; hand the true one on.
    if (r.stats.matches == 0) r.exit.state = prev.exit.state;
    if (prev.exit.copy_depth > 0) {
      // An in-copy hand-off owes the unflushed copy bytes
      // [exit.copy_flushed, boundary) that the predecessor's suspension
      // withheld; the accepted attempt started flushing at the boundary,
      // so they are recorded as the segment's hand-off tail for the driver
      // and folded into its output stats. In-copy hand-offs happen on
      // single-query tables only, so the tail is query 0's.
      ++report_.copy_handoffs;
      if (prev.exit.copy_flushed < seg_begin_[k]) {
        r.tail_begin = prev.exit.copy_flushed;
        r.tail_end = seg_begin_[k];
        r.stats.output_bytes += r.tail_end - r.tail_begin;
        r.query_stats[0].output_bytes += r.tail_end - r.tail_begin;
      }
    }
    ++report_.accepted;
  } else {
    // Mis-speculation: every attempt of this segment lost. Kill them all,
    // then re-run from the true checkpoint on this thread.
    if (count > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t c = 0; c < count; ++c) {
        KillLocked(attempts_[first + c].get());
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
  return ShardedRun(tables, doc, std::vector<OutputSink*>{out}, nullptr,
                    stats, pool, opts, report);
}

Status ShardedRun(const core::RuntimeTables& tables, std::string_view doc,
                  const std::vector<OutputSink*>& sinks,
                  std::vector<core::QueryRunStats>* query_stats,
                  core::RunStats* stats, ThreadPool* pool,
                  const ShardOptions& opts, ShardReport* report) {
  if (tables.states.empty()) {
    return Status::InvalidArgument("empty runtime tables");
  }
  const size_t m = sinks.size();
  if (m != core::QueryCount(tables)) {
    return Status::InvalidArgument(
        "run needs one sink per unique query (" +
        std::to_string(core::QueryCount(tables)) + "), got " +
        std::to_string(m));
  }
  size_t max_shards =
      opts.max_shards != 0 ? opts.max_shards
                           : static_cast<size_t>(std::max(1, pool->size()));
  std::vector<uint64_t> bounds;
  if (max_shards > 1) {
    const strmatch::Matcher* split = tables.split_keywords.matcher();
    bounds = split == nullptr
                 ? FindTopLevelBoundariesParallel(doc, max_shards - 1, pool)
                 : ProbeKeywordBoundaries(doc, *split, max_shards - 1);
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
  // installed into its query's ordered-commit frontier immediately, which
  // streams it into that query's sink and frees its buffer/spill before
  // the next shard is even verified; the rejected attempts of a resolved
  // shard are freed at the same moment. Peak resident output is therefore
  // bounded by the per-segment budget times the outstanding attempts,
  // never by the projection size. Per-query totals accumulate from the
  // resolved segments only -- exactly the segments the serial run would
  // have executed.
  std::vector<std::unique_ptr<OrderedCommitSink>> commits;
  for (OutputSink* sink : sinks) {
    commits.push_back(std::make_unique<OrderedCommitSink>(sink, n));
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
    if (r.tail_end > r.tail_begin) {
      // In-copy hand-off (single-query tables only; product tables re-run
      // instead): the predecessor suspended with copy bytes below the
      // boundary unflushed and the accepted attempt's output starts AT the
      // boundary. Segments install strictly in order, so the ordered
      // frontier is caught up with segment k-1 here and the tail streams
      // straight into the output between the two segments.
      commit_status = sinks[0]->Append(doc.substr(
          static_cast<size_t>(r.tail_begin),
          static_cast<size_t>(r.tail_end - r.tail_begin)));
      if (!commit_status.ok()) break;
    }
    for (size_t u = 0; u < m; ++u) {
      if (u < r.query_stats.size()) {
        totals[u].matches += r.query_stats[u].matches;
        totals[u].output_bytes += r.query_stats[u].output_bytes;
      }
      std::unique_ptr<SpillSink> seg = tables.multi != nullptr
                                           ? std::move(r.mq_sinks[u])
                                           : std::move(r.sink);
      Status s = commits[u]->Install(k, std::move(seg));
      if (commit_status.ok() && !s.ok()) commit_status = s;
    }
  }
  // Cancel whatever the early exits above made moot (attempts past a
  // finished or failed segment) and quiesce the wave: the report's work
  // counters are mutated by in-flight attempts until they drain.
  resolver.Abort();
  if (!commit_status.ok()) {
    if (report != nullptr) *report = resolver.report();
    return commit_status;
  }
  if (produced < n) {
    for (auto& commit : commits) commit->Truncate(produced);
  }
  if (final_status.ok() && produced == n &&
      !resolver.result(n - 1).status.ok()) {
    final_status = resolver.result(n - 1).status;
  }
  if (report != nullptr) *report = resolver.report();
  if (query_stats != nullptr) *query_stats = std::move(totals);
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

}  // namespace smpx::parallel
