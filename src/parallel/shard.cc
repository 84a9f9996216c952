#include "parallel/shard.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/strings.h"

namespace smpx::parallel {
namespace {

/// attempt_of_ sentinel: the segment launched no attempt.
constexpr size_t kNoAttempt = ~size_t{0};

/// The default split (ShardOptions::max_shards == 0) cuts whole waves of
/// one segment per worker, at most kMaxWaves of them and none with
/// segments under kMinSegmentBytes. Segments of equal bytes take unequal
/// time, and the pool's FIFO queue plus the resolver's steal-on-wait even
/// the load out only when there are more segments than workers; a partial
/// wave leaves workers idle at its end. On 4 workers the gain stopped
/// growing past 4 waves, and MEDLINE (segments of like cost) ran slower
/// than with one segment per worker under a partial wave (5, 7 or 9
/// segments) or with segments under 256 KiB; whole waves of segments of
/// 512 KiB or more never did.
constexpr uint64_t kMaxWaves = 4;
constexpr uint64_t kMinSegmentBytes = uint64_t{512} << 10;

/// Segments the default split asks the probe for: one serial session on a
/// one-worker pool, else W x clamp(doc bytes / (W x 512 KiB), 1, 4).
size_t DefaultShards(size_t workers, uint64_t doc_bytes) {
  if (workers <= 1) return 1;
  const uint64_t waves = doc_bytes / (workers * kMinSegmentBytes);
  return workers *
         static_cast<size_t>(std::clamp<uint64_t>(waves, 1, kMaxWaves));
}

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

/// The whole document as one core::RunEngine run on the calling thread --
/// one Finish over the resident bytes, straight into the caller's sinks:
/// ShardedRun's run when it finds no split point.
Status RunWhole(const core::RuntimeTables& tables, std::string_view doc,
                const std::vector<OutputSink*>& sinks,
                std::vector<core::QueryRunStats>* query_stats,
                core::RunStats* stats, const core::EngineOptions& eopts,
                ShardReport* report) {
  const MemorySource src(doc);
  core::RunStats local;
  const Status status =
      core::RunEngine(tables, &src, sinks, query_stats, &local, eopts);
  if (stats != nullptr) {
    MergeRunStats(stats, local);
    stats->states_visited = local.states_visited;
  }
  if (report != nullptr) {
    *report = ShardReport();
    report->shards = 1;
    report->serial_bytes = local.input_bytes;
  }
  return status;
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
  // known entry class; any other boundary is left to a re-run.
  seg_keyword_.assign(n, -1);
  for (size_t k = 1; k < n; ++k) {
    const int kw = tables_.split_keywords.Find(TagNameAt(doc_, seg_begin_[k]));
    seg_keyword_[k] = kw;
    if (kw < 0) continue;
    report_.candidate_classes = 1;
    report_.candidate_states = std::max(
        report_.candidate_states,
        tables_.split_keywords.states(static_cast<size_t>(kw)).size());
  }
  results_.resize(n);
  report_.shards = n;
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
  // Any member stands for the keyword's class; the true entry state's
  // visited bit is the predecessor's, so the representative's is not
  // counted.
  RunSegment(a->segment, a->segment == 0 ? nullptr : &a->entry, &a->result,
             /*mark_start=*/a->segment == 0, &a->cancel);
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
  // One fully parallel wave: the head plus one run per segment whose
  // boundary opens a split keyword. Nothing serializes ahead of the wave,
  // and nothing waits for it either -- Resolve picks attempts up as their
  // exits land.
  const size_t n = segments();
  attempt_of_.assign(n, kNoAttempt);
  for (size_t k = 0; k < n; ++k) {
    if (k > 0 && seg_keyword_[k] < 0) continue;
    auto a = std::make_unique<Attempt>();
    a->segment = k;
    if (k > 0) {
      a->entry.state = tables_.split_keywords
                           .states(static_cast<size_t>(seg_keyword_[k]))
                           .front();
      a->entry.cursor = seg_begin_[k];
      a->entry.copy_flushed = seg_begin_[k];
    }
    attempt_of_[k] = attempts_.size();
    attempts_.push_back(std::move(a));
  }
  report_.speculated = attempts_.size() - 1;
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

bool SpeculativeResolver::Accepts(size_t k, const ShardResult& prev) const {
  // Why an entry match suffices: a clean drain means no keyword completed
  // in the overlap tail, and no keyword can straddle the boundary's '<'
  // (keywords contain '<' only at position 0), so state, copy depth and
  // opaque nesting are all constant from the exit cursor through the
  // boundary -- a member state at depth 0 and nesting 0 IS the serial
  // engine's entry configuration there, unless an initial jump carried the
  // cursor past the boundary (SkipsLiveBytes).
  const core::SessionCheckpoint& exit = prev.exit;
  if (seg_keyword_[k] < 0 || !prev.clean || exit.nesting_depth != 0 ||
      exit.copy_depth != 0) {
    return false;
  }
  const std::vector<int>& members =
      tables_.split_keywords.states(static_cast<size_t>(seg_keyword_[k]));
  return std::binary_search(members.begin(), members.end(), exit.state) &&
         !SkipsLiveBytes(k, exit);
}

ShardResult& SpeculativeResolver::Resolve(size_t k) {
  if (k == 0) {
    WaitDone(attempt_of_[0]);
    std::lock_guard<std::mutex> lock(mu_);
    results_[0] = std::move(attempts_[attempt_of_[0]]->result);
    return results_[0];
  }
  ShardResult& prev = results_[k - 1];
  // Accept the speculative attempt when its assumed entry matches the
  // predecessor's actual hand-off; otherwise re-run the segment from the
  // true checkpoint. Deterministic by construction -- the accepted
  // sequence replays the serial run (early-kill only cancels attempts
  // that were never going to be part of it).
  const size_t idx = attempt_of_[k];
  if (Accepts(k, prev)) {
    WaitDone(idx);
    {
      std::lock_guard<std::mutex> lock(mu_);
      results_[k] = std::move(attempts_[idx]->result);
    }
    ShardResult& r = results_[k];
    // An attempt that took no transition still sits in its assumed entry
    // state, which may be another member of the class than the serial
    // run's; hand the true one on.
    if (r.stats.matches == 0) r.exit.state = prev.exit.state;
    ++report_.accepted;
  } else {
    // Mis-speculation or no keyword: kill the attempt, if any, then re-run
    // from the true checkpoint on this thread.
    if (idx != kNoAttempt) {
      std::lock_guard<std::mutex> lock(mu_);
      KillLocked(attempts_[idx].get());
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
  const size_t workers = static_cast<size_t>(std::max(1, pool->size()));
  const size_t max_shards = opts.max_shards != 0
                                ? opts.max_shards
                                : DefaultShards(workers, doc.size());
  const strmatch::Matcher* split =
      max_shards > 1 ? tables.split_keywords.matcher() : nullptr;
  const std::vector<uint64_t> bounds =
      split != nullptr ? ProbeKeywordBoundaries(doc, *split, max_shards - 1)
                       : std::vector<uint64_t>();
  if (bounds.empty()) {
    return RunWhole(tables, doc, sinks, query_stats, stats, opts.engine,
                    report);
  }

  SpeculativeResolver::Options ropts;
  // The segments of one worker share its budget, so the wave's resident
  // output stays O(workers x budget) however many segments it runs.
  const size_t per_worker = (bounds.size() + workers) / workers;
  ropts.max_buffer_bytes =
      opts.max_buffer_bytes != 0
          ? std::max<size_t>(opts.max_buffer_bytes / per_worker, 1)
          : 0;
  ropts.engine = opts.engine;
  // All attempts of the wave share one spill file; killed attempts
  // release their extents the moment they are freed.
  SpillArena arena;
  ropts.arena = &arena;
  SpeculativeResolver resolver(tables, doc, bounds, ropts);
  const size_t n = resolver.segments();
  resolver.LaunchWave(pool);

  // Segments resolve in document order on this thread, each as an
  // accepted attempt or a synchronous re-run, so every resolved segment is
  // replayed straight into its query's sink and freed before the next one
  // is even verified; the rejected attempts of a resolved segment are
  // freed at the same moment. Peak resident output is therefore bounded by
  // the per-segment budget times the outstanding attempts, never by the
  // projection size. Per-query totals accumulate from the resolved
  // segments only -- exactly the segments the serial run would have
  // executed.
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
    for (size_t u = 0; commit_status.ok() && u < m; ++u) {
      if (u < r.query_stats.size()) {
        totals[u].matches += r.query_stats[u].matches;
        totals[u].output_bytes += r.query_stats[u].output_bytes;
      }
      std::unique_ptr<SpillSink> seg = tables.multi != nullptr
                                           ? std::move(r.mq_sinks[u])
                                           : std::move(r.sink);
      if (seg != nullptr) commit_status = seg->CopyTo(sinks[u]);
    }
  }
  // Cancel whatever the early exits above made moot (attempts past a
  // finished or failed segment, or a sink error) and quiesce the wave: the
  // report's work counters are mutated by in-flight attempts until they
  // drain. On a sink error the sinks hold a prefix of the projection.
  resolver.Abort();
  if (report != nullptr) *report = resolver.report();
  if (!commit_status.ok()) return commit_status;
  if (final_status.ok() && produced == n &&
      !resolver.result(n - 1).status.ok()) {
    final_status = resolver.result(n - 1).status;
  }
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
