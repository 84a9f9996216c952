#include "index/boundary_index.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"
#include "common/strings.h"
#include "index/wire.h"
#include "parallel/shard.h"
#include "simd/simd.h"

namespace smpx::index {
namespace {

constexpr char kMagic[8] = {'S', 'M', 'P', 'X', 'B', 'I', 'X', '1'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8;
constexpr size_t kFooterBytes = 8;

/// Entry flag bits (one byte per entry on disk).
constexpr uint8_t kFlagPrologDone = 1;
constexpr uint8_t kFlagJumpPending = 2;

/// Floor for the chunked build's rolling buffer: the structural scan
/// peeks up to 9 bytes ("<![CDATA[") and the pattern searches need room
/// to make progress past their overlap.
constexpr uint64_t kMinChunkBytes = 64;

Status Corrupt(const std::string& what) {
  return Status::ParseError("corrupt boundary index: " + what);
}

/// The shared stride arithmetic of both build paths: how many split
/// targets the (granularity, max_entries, size) triple yields. The two
/// overloads must agree exactly for their boundary sets to coincide.
uint64_t MaxSplitsFor(uint64_t doc_size, const BoundaryIndexOptions& opts) {
  const uint64_t gran = std::max<uint64_t>(1, opts.granularity_bytes);
  uint64_t max_splits = std::min<uint64_t>(doc_size / gran, opts.max_entries);
  if (doc_size > 0) {
    // FindTopLevelBoundaries needs a stride of at least one byte.
    max_splits = std::min<uint64_t>(max_splits, doc_size - 1);
  }
  return max_splits;
}

/// Rolling-window structural scan primitives over an InputSource: the
/// subset of shard.cc's StructScanner the chunked build needs, with
/// transparent refill so no more than one chunk is resident. Positions
/// are absolute document offsets; every primitive returns size() when the
/// sought byte/pattern is absent -- or on a read error, which sticks in
/// status() and is surfaced once by the caller after the pass.
class StreamScanner {
 public:
  StreamScanner(const InputSource& src, uint64_t chunk)
      : src_(src),
        size_(src.size()),
        chunk_(static_cast<size_t>(
            std::max<uint64_t>(chunk, kMinChunkBytes))) {}

  uint64_t size() const { return size_; }
  const Status& status() const { return status_; }

  uint64_t NextOpen(uint64_t pos) { return FindByteAt(pos, '<'); }

  /// Up to `n` bytes at `pos` (short only at end of input or on error).
  /// `n` must stay below kMinChunkBytes so one refill always suffices.
  std::string_view PeekAt(uint64_t pos, size_t n) {
    if (pos >= size_ || !Ensure(pos)) return {};
    std::string_view w = WindowFrom(pos);
    if (w.size() < n && base_ + buf_len_ < size_) {
      // `pos` sits in the window's tail: refill from it so a peek short
      // of `n` bytes means end of input, never end of buffer.
      if (!Refill(pos)) return {};
      w = WindowFrom(pos);
    }
    return w.substr(0, std::min(n, w.size()));
  }

  char ByteAt(uint64_t pos) {
    std::string_view b = PeekAt(pos, 1);
    return b.empty() ? '\0' : b[0];
  }

  /// Mirrors StructScanner::TagEnd: the '>' closing the tag whose '<'
  /// sits at `from`, skipping quoted attribute values.
  uint64_t TagEnd(uint64_t from) {
    static constexpr simd::ByteSet kTagEnd(">\"'");
    uint64_t r = from + 1;
    for (;;) {
      const uint64_t hit = FindAnyAt(r, kTagEnd);
      if (hit >= size_) return size_;
      const char hc = ByteAt(hit);
      if (hc == '>') return hit;
      const uint64_t end = FindByteAt(hit + 1, hc);
      if (end >= size_) return size_;
      r = end + 1;
    }
  }

  /// Mirrors StructScanner::SkipMarkupConstruct (comment, CDATA, PI,
  /// DOCTYPE-style declaration).
  uint64_t SkipMarkupConstruct(uint64_t t, char next) {
    if (next == '?') return SkipPastTerm(t + 2, "?>");
    std::string_view rest = PeekAt(t, 9);
    if (rest.substr(0, 4) == "<!--") return SkipPastTerm(t + 4, "-->");
    if (rest == "<![CDATA[") return SkipPastTerm(t + 9, "]]>");
    return SkipDeclaration(t);
  }

 private:
  uint64_t SkipPastTerm(uint64_t from, std::string_view term) {
    const uint64_t hit = FindPatternAt(from, term);
    if (hit >= size_) return size_;
    return hit + term.size();
  }

  uint64_t SkipDeclaration(uint64_t from) {
    static constexpr simd::ByteSet kStructural("[]>\"'");
    uint64_t r = from + 2;
    int bracket = 0;
    while (r < size_) {
      const uint64_t hit = FindAnyAt(r, kStructural);
      if (hit >= size_) return size_;
      const char hc = ByteAt(hit);
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
        const uint64_t end = FindByteAt(hit + 1, hc);
        if (end >= size_) return size_;
        r = end + 1;
      }
    }
    return size_;
  }

  uint64_t FindByteAt(uint64_t from, char c) {
    while (from < size_) {
      if (!Ensure(from)) return size_;
      std::string_view w = WindowFrom(from);
      const size_t i =
          simd::FindByte(w.data(), w.size(), static_cast<unsigned char>(c));
      if (i < w.size()) return from + i;
      from += w.size();
    }
    return size_;
  }

  uint64_t FindAnyAt(uint64_t from, const simd::ByteSet& set) {
    while (from < size_) {
      if (!Ensure(from)) return size_;
      std::string_view w = WindowFrom(from);
      const size_t i = simd::FindAny(w.data(), w.size(), set);
      if (i < w.size()) return from + i;
      from += w.size();
    }
    return size_;
  }

  uint64_t FindPatternAt(uint64_t from, std::string_view term) {
    // Windows overlap by term.size()-1 bytes so a straddling occurrence
    // is seen whole in the next window.
    while (from + term.size() <= size_) {
      if (!Ensure(from)) return size_;
      std::string_view w = WindowFrom(from);
      if (w.size() < term.size()) return size_;  // EOF tail too short
      const size_t i = simd::FindPattern(w.data(), w.size(), term);
      if (i + term.size() <= w.size()) return from + i;
      from += w.size() - (term.size() - 1);
    }
    return size_;
  }

  /// Makes the window contain `pos`; refills from `pos` when it does not.
  bool Ensure(uint64_t pos) {
    if (!status_.ok()) return false;
    if (pos >= base_ && pos < base_ + buf_len_) return true;
    return Refill(pos);
  }

  /// Unconditionally reloads the window to start at `pos`.
  bool Refill(uint64_t pos) {
    if (!status_.ok()) return false;
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(chunk_, size_ - pos));
    buf_.resize(std::max(buf_.size(), want));
    size_t done = 0;
    while (done < want) {
      auto n = src_.ReadAt(pos + done, buf_.data() + done, want - done);
      if (!n.ok()) {
        status_ = n.status();
        return false;
      }
      if (*n == 0) break;  // source shrank under us; scan what we have
      done += *n;
    }
    base_ = pos;
    buf_len_ = done;
    if (done == 0) {
      status_ = Status::IoError(
          "input source returned no data at offset " + std::to_string(pos) +
          " (size " + std::to_string(size_) + ")");
      return false;
    }
    return true;
  }

  std::string_view WindowFrom(uint64_t pos) const {
    const size_t skip = static_cast<size_t>(pos - base_);
    return std::string_view(buf_.data() + skip, buf_len_ - skip);
  }

  const InputSource& src_;
  const uint64_t size_;
  const size_t chunk_;
  std::vector<char> buf_;
  uint64_t base_ = 0;
  size_t buf_len_ = 0;
  Status status_ = Status::Ok();
};

}  // namespace

StatsPrefix StatsPrefix::FromRunStats(const core::RunStats& s) {
  StatsPrefix p;
  p.matches = s.matches;
  p.false_matches = s.false_matches;
  p.scan_chars = s.scan_chars;
  p.initial_jumps = s.initial_jumps;
  p.initial_jump_chars = s.initial_jump_chars;
  p.bm_searches = s.bm_searches;
  p.cw_searches = s.cw_searches;
  p.search_comparisons = s.search.comparisons;
  p.search_shifts = s.search.shifts;
  p.search_shift_chars = s.search.shift_chars;
  return p;
}

void StatsPrefix::AccumulateInto(core::RunStats* s) const {
  s->matches += matches;
  s->false_matches += false_matches;
  s->scan_chars += scan_chars;
  s->initial_jumps += initial_jumps;
  s->initial_jump_chars += initial_jump_chars;
  s->bm_searches += bm_searches;
  s->cw_searches += cw_searches;
  s->search.comparisons += search_comparisons;
  s->search.shifts += search_shifts;
  s->search.shift_chars += search_shift_chars;
}

Result<BoundaryIndex> BoundaryIndex::Build(const core::RuntimeTables& tables,
                                           std::string_view doc,
                                           parallel::ThreadPool* pool,
                                           const BoundaryIndexOptions& opts) {
  if (tables.states.empty()) {
    return Status::InvalidArgument("empty runtime tables");
  }
  if (tables.multi != nullptr) {
    return Status::Unsupported(
        "boundary indexing over multi-query product tables is not supported; "
        "index each query's single-query tables instead");
  }
  BoundaryIndex idx;
  idx.doc_size_ = doc.size();
  idx.doc_digest_ = Hash64(doc);
  idx.tables_fingerprint_ = tables.Fingerprint();

  const uint64_t max_splits = MaxSplitsFor(doc.size(), opts);
  std::vector<uint64_t> bounds;
  if (max_splits > 0) {
    bounds = pool->size() > 1
                 ? parallel::FindTopLevelBoundariesParallel(
                       doc, static_cast<size_t>(max_splits), pool)
                 : parallel::FindTopLevelBoundaries(
                       doc, static_cast<size_t>(max_splits));
  }

  // The sharded execution pipeline with the output thrown away: speculate
  // every inter-boundary segment in one wave, then resolve the chain in
  // order. Each resolved exit is the serial engine's state at the next
  // boundary -- verified, not assumed -- and the per-segment output byte
  // counts accumulate into the projection offsets.
  parallel::SpeculativeResolver::Options ropts;
  ropts.max_candidate_states = opts.max_candidate_states;
  ropts.capture_output = false;
  ropts.engine = opts.engine;
  parallel::SpeculativeResolver resolver(tables, doc, bounds, ropts);
  const size_t n = resolver.segments();
  resolver.LaunchWave(pool);
  idx.entries_.reserve(bounds.size());
  uint64_t out_offset = 0;
  core::RunStats prefix_stats;
  for (size_t k = 0; k < n; ++k) {
    parallel::ShardResult& r = resolver.Resolve(k);
    if (!r.status.ok()) return r.status;
    out_offset += r.stats.output_bytes;
    parallel::MergeRunStats(&prefix_stats, r.stats);
    if (r.finished) break;  // serial run ends; later boundaries unreachable
    if (k + 1 < n) {
      IndexEntry e;
      e.offset = resolver.seg_begin(k + 1);
      e.out_offset = out_offset;
      e.checkpoint = r.exit;
      e.stats = StatsPrefix::FromRunStats(prefix_stats);
      idx.entries_.push_back(e);
    }
  }

  // Record ordinals: count top-level starts per inter-entry segment in
  // parallel, then prefix-sum. Entry i sits at the start of segment i+1,
  // so its ordinal is the count over segments 0..i. Segment 0 enters at
  // the document start (depth 0); every other segment at a boundary
  // (depth 1, the record at the boundary itself still uncounted).
  const size_t ne = idx.entries_.size();
  if (ne > 0) {
    std::vector<uint64_t> counts(ne);
    pool->RunAndWait(ne, [&](size_t j) {
      const uint64_t begin = j == 0 ? 0 : idx.entries_[j - 1].offset;
      const uint64_t end = idx.entries_[j].offset;
      counts[j] =
          parallel::CountTopLevelStarts(doc, begin, end, j == 0 ? 0 : 1);
    });
    uint64_t total = 0;
    for (size_t j = 0; j < ne; ++j) {
      total += counts[j];
      idx.entries_[j].record_ordinal = total;
    }
  }
  return idx;
}

Result<BoundaryIndex> BoundaryIndex::Build(const core::RuntimeTables& tables,
                                           const InputSource& src,
                                           parallel::ThreadPool* pool,
                                           const BoundaryIndexOptions& opts) {
  (void)pool;  // single-threaded by design: bounded memory beats wave speed
  if (tables.states.empty()) {
    return Status::InvalidArgument("empty runtime tables");
  }
  if (tables.multi != nullptr) {
    return Status::Unsupported(
        "boundary indexing over multi-query product tables is not supported; "
        "index each query's single-query tables instead");
  }
  BoundaryIndex idx;
  const uint64_t size = src.size();
  idx.doc_size_ = size;
  idx.tables_fingerprint_ = tables.Fingerprint();

  const uint64_t max_splits = MaxSplitsFor(size, opts);
  const uint64_t stride = max_splits > 0 ? size / (max_splits + 1) : 0;
  const uint64_t chunk = std::max<uint64_t>(opts.chunk_bytes, kMinChunkBytes);

  // One interleaved pass. The structural scan (same rules and target
  // arithmetic as FindTopLevelBoundaries) runs ahead finding selected
  // boundaries and counting records; whenever it selects one, the feed
  // catches the engine up to exactly that offset and the suspension
  // checkpoint becomes the entry. The feed also streams every byte
  // through the content digest. Scan reads and feed reads are separate
  // ReadAt streams, so the source is read about twice -- the price of
  // O(chunk) memory without a shared sliding window between two
  // differently-paced consumers.
  StreamScanner sc(src, chunk);
  Hash64Stream hasher;
  CountingSink discard;
  core::RunStats stats;
  core::PrefilterSession session(tables, &discard, &stats, opts.engine);
  uint64_t feed_pos = 0;
  std::vector<char> feed_buf;
  Status run_status = Status::Ok();

  // Reads [feed_pos, to) in chunks: every byte goes through the digest,
  // and through the engine until it reports itself finished.
  auto feed_to = [&](uint64_t to) -> Status {
    feed_buf.resize(static_cast<size_t>(
        std::min<uint64_t>(chunk, std::max<uint64_t>(to - feed_pos, 1))));
    while (feed_pos < to) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(feed_buf.size(), to - feed_pos));
      size_t done = 0;
      while (done < want) {
        SMPX_ASSIGN_OR_RETURN(
            size_t n, src.ReadAt(feed_pos + done, feed_buf.data() + done,
                                 want - done));
        if (n == 0) {
          return Status::IoError("input source shrank at offset " +
                                 std::to_string(feed_pos + done));
        }
        done += n;
      }
      std::string_view piece(feed_buf.data(), done);
      hasher.Update(piece);
      if (run_status.ok() && !session.finished()) {
        run_status = session.Resume(piece);
      }
      feed_pos += done;
    }
    return Status::Ok();
  };

  uint64_t scan_pos = 0;
  uint64_t depth = 0;
  uint64_t records = 0;
  uint64_t target_idx = 1;
  uint64_t splits_found = 0;
  uint64_t prev_boundary = 0;
  const bool scan_enabled = stride > 0 && size >= 2;
  while (scan_enabled && splits_found < max_splits && scan_pos < size) {
    const uint64_t t = sc.NextOpen(scan_pos);
    if (t >= size) break;
    std::string_view head = sc.PeekAt(t, 2);
    if (head.size() < 2) break;
    const char next = head[1];
    if (next == '!' || next == '?') {
      scan_pos = sc.SkipMarkupConstruct(t, next);
      continue;
    }
    if (next == '/') {
      const uint64_t end = sc.TagEnd(t);
      if (depth > 0) --depth;
      scan_pos = end + 1;
      continue;
    }
    if (!IsNameChar(next)) {
      scan_pos = t + 1;  // stray '<' in text
      continue;
    }
    if (depth == 1) {
      if (t >= target_idx * stride) {
        // A selected boundary: bring the engine here and snapshot it.
        SMPX_RETURN_IF_ERROR(feed_to(t));
        if (!run_status.ok()) return run_status;
        if (session.finished()) break;  // later boundaries unreachable
        IndexEntry e;
        e.offset = t;
        // The engine finalizes stats.output_bytes only at the end of a
        // run; mid-stream the sink's own count is the projection offset.
        e.out_offset = discard.bytes_written();
        e.record_ordinal = records;
        e.checkpoint = session.checkpoint();
        if (e.checkpoint.copy_depth == 0) {
          // Out of copy mode, copy_flushed is dormant bookkeeping (the
          // next copy entry resets it) but its VALUE differs by history:
          // the wave's segment runs start it at the segment begin, a
          // serial session leaves the last flush position. Canonicalize
          // to the wave's value so the two builders agree field-for-field
          // and chunked output is chunk-size-invariant.
          e.checkpoint.copy_flushed =
              std::max(e.checkpoint.copy_flushed, prev_boundary);
        }
        e.stats = StatsPrefix::FromRunStats(stats);
        idx.entries_.push_back(e);
        prev_boundary = t;
        ++splits_found;
        while (target_idx <= max_splits && target_idx * stride <= t) {
          ++target_idx;  // collapse targets this boundary already covers
        }
      }
      ++records;
    }
    const uint64_t end = sc.TagEnd(t);
    const bool bachelor =
        end < size && end > t + 1 && sc.ByteAt(end - 1) == '/';
    if (!bachelor) ++depth;
    scan_pos = end + 1;
  }
  SMPX_RETURN_IF_ERROR(sc.status());

  // Tail: engine to end-of-document (a broken document must fail the
  // build, exactly like the in-memory path), digest over every byte.
  SMPX_RETURN_IF_ERROR(feed_to(size));
  if (!run_status.ok()) return run_status;
  if (!session.finished()) {
    SMPX_RETURN_IF_ERROR(session.Finish());
  }
  idx.doc_digest_ = hasher.Digest();
  return idx;
}

int64_t BoundaryIndex::FindEntry(uint64_t byte_target) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), byte_target,
      [](uint64_t t, const IndexEntry& e) { return t < e.offset; });
  return static_cast<int64_t>(it - entries_.begin()) - 1;
}

int64_t BoundaryIndex::FindRecord(uint64_t record_target) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), record_target,
      [](uint64_t t, const IndexEntry& e) { return t < e.record_ordinal; });
  return static_cast<int64_t>(it - entries_.begin()) - 1;
}

Status BoundaryIndex::Matches(std::string_view doc,
                              const core::RuntimeTables& tables) const {
  if (doc.size() != doc_size_) {
    return Status::InvalidArgument(
        "stale boundary index: document size " +
        std::to_string(doc.size()) + " != indexed size " +
        std::to_string(doc_size_));
  }
  if (Hash64(doc) != doc_digest_) {
    return Status::InvalidArgument(
        "stale boundary index: document content digest mismatch");
  }
  if (tables.Fingerprint() != tables_fingerprint_) {
    return Status::InvalidArgument(
        "stale boundary index: built against different runtime tables "
        "(DTD / projection paths / table options changed)");
  }
  return Status::Ok();
}

std::string BoundaryIndex::Serialize() const {
  std::string out;
  out.reserve(kHeaderBytes + 32 * entries_.size() + kFooterBytes);
  out.append(kMagic, sizeof(kMagic));
  wire::PutU32(&out, kVersion);
  wire::PutU32(&out, 0);  // reserved
  wire::PutU64(&out, doc_size_);
  wire::PutU64(&out, doc_digest_);
  wire::PutU64(&out, tables_fingerprint_);
  wire::PutU64(&out, entries_.size());
  uint64_t prev_offset = 0;
  uint64_t prev_out = 0;
  uint64_t prev_records = 0;
  StatsPrefix prev_stats;
  for (const IndexEntry& e : entries_) {
    const core::SessionCheckpoint& c = e.checkpoint;
    wire::PutVarint(&out, e.offset - prev_offset);
    wire::PutVarint(&out, e.out_offset - prev_out);
    wire::PutVarint(&out, static_cast<uint64_t>(c.state));
    // The cursor usually trails the boundary by the keyword-overlap tail,
    // but an initial jump can also carry it past the boundary, so the
    // backset is signed.
    wire::PutVarint(&out, wire::ZigZag(static_cast<int64_t>(e.offset) -
                                       static_cast<int64_t>(c.cursor)));
    wire::PutVarint(&out, c.nesting_depth);
    wire::PutVarint(&out, static_cast<uint64_t>(c.copy_depth));
    wire::PutVarint(&out, wire::ZigZag(static_cast<int64_t>(c.cursor) -
                                       static_cast<int64_t>(c.copy_flushed)));
    out.push_back(static_cast<char>((c.prolog_done ? kFlagPrologDone : 0) |
                                    (c.jump_pending ? kFlagJumpPending : 0)));
    // v2 tail: record ordinal and the stats prefix, all cumulative, all
    // delta-encoded against the previous entry.
    wire::PutVarint(&out, e.record_ordinal - prev_records);
    wire::PutVarint(&out, e.stats.matches - prev_stats.matches);
    wire::PutVarint(&out, e.stats.false_matches - prev_stats.false_matches);
    wire::PutVarint(&out, e.stats.scan_chars - prev_stats.scan_chars);
    wire::PutVarint(&out, e.stats.initial_jumps - prev_stats.initial_jumps);
    wire::PutVarint(&out,
                    e.stats.initial_jump_chars - prev_stats.initial_jump_chars);
    wire::PutVarint(&out, e.stats.bm_searches - prev_stats.bm_searches);
    wire::PutVarint(&out, e.stats.cw_searches - prev_stats.cw_searches);
    wire::PutVarint(
        &out, e.stats.search_comparisons - prev_stats.search_comparisons);
    wire::PutVarint(&out, e.stats.search_shifts - prev_stats.search_shifts);
    wire::PutVarint(
        &out, e.stats.search_shift_chars - prev_stats.search_shift_chars);
    prev_offset = e.offset;
    prev_out = e.out_offset;
    prev_records = e.record_ordinal;
    prev_stats = e.stats;
  }
  wire::PutU64(&out, Hash64(out));
  return out;
}

Status BoundaryIndex::Save(OutputSink* out) const {
  return out->Append(Serialize());
}

Status BoundaryIndex::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, Serialize());
}

Result<BoundaryIndex> BoundaryIndex::Load(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes + kFooterBytes) {
    return Corrupt("truncated (" + std::to_string(bytes.size()) + " bytes)");
  }
  // The trailing hash covers everything before it, so any flipped or
  // missing byte anywhere in the file fails here -- structural checks
  // below only produce better messages (and guard hash collisions).
  wire::Reader footer(bytes.substr(bytes.size() - kFooterBytes));
  uint64_t stored_hash = 0;
  footer.ReadU64(&stored_hash);
  if (Hash64(bytes.substr(0, bytes.size() - kFooterBytes)) != stored_hash) {
    return Corrupt("content hash mismatch");
  }

  wire::Reader r(bytes.substr(0, bytes.size() - kFooterBytes));
  if (bytes.compare(0, sizeof(kMagic),
                    std::string_view(kMagic, sizeof(kMagic))) != 0) {
    return Corrupt("bad magic");
  }
  r.Skip(sizeof(kMagic));
  uint32_t version = 0;
  uint32_t reserved = 0;
  r.ReadU32(&version);
  r.ReadU32(&reserved);
  if (version != kVersion) {
    // Fail closed on version 1 too: it lacks record ordinals and stats
    // prefixes, and fabricating them would corrupt record seeks silently.
    return Status::Unsupported(
        "boundary index version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kVersion) +
        "; rebuild the index with --index-build)");
  }
  BoundaryIndex idx;
  uint64_t count = 0;
  r.ReadU64(&idx.doc_size_);
  r.ReadU64(&idx.doc_digest_);
  r.ReadU64(&idx.tables_fingerprint_);
  r.ReadU64(&count);
  if (r.failed()) return Corrupt("truncated header");
  if (count > idx.doc_size_) {
    // More entries than document bytes is impossible (offsets are
    // strictly increasing); rejecting early also bounds the allocation.
    return Corrupt("entry count " + std::to_string(count) +
                   " exceeds document size");
  }
  idx.entries_.reserve(static_cast<size_t>(count));
  uint64_t prev_offset = 0;
  uint64_t prev_out = 0;
  uint64_t prev_records = 0;
  StatsPrefix prev_stats;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t d_off = 0, d_out = 0, state = 0, cursor_back = 0;
    uint64_t nesting = 0, copy_depth = 0, copy_back = 0;
    uint8_t flags = 0;
    uint64_t d_rec = 0;
    uint64_t d_stats[10] = {0};
    r.ReadVarint(&d_off);
    r.ReadVarint(&d_out);
    r.ReadVarint(&state);
    r.ReadVarint(&cursor_back);
    r.ReadVarint(&nesting);
    r.ReadVarint(&copy_depth);
    r.ReadVarint(&copy_back);
    r.ReadByte(&flags);
    r.ReadVarint(&d_rec);
    for (uint64_t& d : d_stats) r.ReadVarint(&d);
    if (r.failed()) {
      return Corrupt("truncated entry " + std::to_string(i));
    }
    IndexEntry e;
    e.offset = prev_offset + d_off;
    e.out_offset = prev_out + d_out;
    e.record_ordinal = prev_records + d_rec;
    if (e.offset >= idx.doc_size_) {
      return Corrupt("entry " + std::to_string(i) + " offset out of range");
    }
    if (i > 0 && d_off == 0) {
      return Corrupt("entry " + std::to_string(i) + " offset not increasing");
    }
    // Consecutive boundaries always have at least one record between them
    // (the one starting at the earlier boundary), and a record costs at
    // least one byte, so ordinals are strictly increasing and bounded.
    if (i > 0 && d_rec == 0) {
      return Corrupt("entry " + std::to_string(i) +
                     " record ordinal not increasing");
    }
    if (e.record_ordinal > e.offset) {
      return Corrupt("entry " + std::to_string(i) +
                     " record ordinal exceeds offset");
    }
    if (state > static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
        copy_depth >
            static_cast<uint64_t>(std::numeric_limits<int>::max())) {
      return Corrupt("entry " + std::to_string(i) + " field out of range");
    }
    e.checkpoint.state = static_cast<int>(state);
    e.checkpoint.cursor = static_cast<uint64_t>(
        static_cast<int64_t>(e.offset) - wire::UnZigZag(cursor_back));
    e.checkpoint.nesting_depth = nesting;
    e.checkpoint.copy_depth = static_cast<int>(copy_depth);
    e.checkpoint.copy_flushed = static_cast<uint64_t>(
        static_cast<int64_t>(e.checkpoint.cursor) -
        wire::UnZigZag(copy_back));
    e.checkpoint.prolog_done = (flags & kFlagPrologDone) != 0;
    e.checkpoint.jump_pending = (flags & kFlagJumpPending) != 0;
    e.stats.matches = prev_stats.matches + d_stats[0];
    e.stats.false_matches = prev_stats.false_matches + d_stats[1];
    e.stats.scan_chars = prev_stats.scan_chars + d_stats[2];
    e.stats.initial_jumps = prev_stats.initial_jumps + d_stats[3];
    e.stats.initial_jump_chars = prev_stats.initial_jump_chars + d_stats[4];
    e.stats.bm_searches = prev_stats.bm_searches + d_stats[5];
    e.stats.cw_searches = prev_stats.cw_searches + d_stats[6];
    e.stats.search_comparisons =
        prev_stats.search_comparisons + d_stats[7];
    e.stats.search_shifts = prev_stats.search_shifts + d_stats[8];
    e.stats.search_shift_chars =
        prev_stats.search_shift_chars + d_stats[9];
    idx.entries_.push_back(e);
    prev_offset = e.offset;
    prev_out = e.out_offset;
    prev_records = e.record_ordinal;
    prev_stats = e.stats;
  }
  if (r.remaining() != 0) {
    return Corrupt(std::to_string(r.remaining()) +
                   " trailing bytes after the last entry");
  }
  return idx;
}

Result<BoundaryIndex> BoundaryIndex::LoadFromFile(const std::string& path) {
  SMPX_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return Load(bytes);
}

}  // namespace smpx::index
