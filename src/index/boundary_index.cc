#include "index/boundary_index.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"
#include "index/wire.h"
#include "parallel/boundary_scan.h"

namespace smpx::index {
namespace {

constexpr char kMagic[8] = {'S', 'M', 'P', 'X', 'B', 'I', 'X', '1'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 8;
constexpr size_t kFooterBytes = 8;

/// Entry flag bits (one byte per entry on disk).
constexpr uint8_t kFlagPrologDone = 1;
constexpr uint8_t kFlagJumpPending = 2;

/// Cap on the entry count whatever the granularity: past it the split
/// targets spread evenly over the document instead.
constexpr uint64_t kMaxEntries = 1 << 20;

/// Smallest serialized entry: eight varints, the flag byte and ten
/// stats-prefix varints, one byte each at least.
constexpr uint64_t kMinEntryBytes = 8 + 1 + 10;

Status Corrupt(const std::string& what) {
  return Status::ParseError("corrupt boundary index: " + what);
}

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
                                           parallel::ThreadPool*,
                                           const BoundaryIndexOptions& opts) {
  return Build(tables, MemorySource(doc), opts);
}

Result<BoundaryIndex> BoundaryIndex::Build(const core::RuntimeTables& tables,
                                           const InputSource& src,
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
  const uint64_t size = src.size();
  idx.doc_size_ = size;
  idx.tables_fingerprint_ = tables.Fingerprint();

  // One split target per granularity step; at most size-1 of them, so the
  // target stride is at least one byte.
  const uint64_t gran = std::max<uint64_t>(1, opts.granularity_bytes);
  const uint64_t max_splits =
      size == 0 ? 0 : std::min({size / gran, kMaxEntries, size - 1});
  const uint64_t chunk =
      std::max<uint64_t>(opts.chunk_bytes, parallel::kMinScanChunkBytes);
  // Resident sources feed each span between boundaries whole; others in
  // reads of at most `chunk` bytes.
  const uint64_t feed_chunk = src.Contiguous().size() == size ? size : chunk;

  // The structural scan runs ahead selecting boundaries and counting
  // records; at each selected boundary the feed catches the engine up to
  // exactly that offset and the suspended session's checkpoint becomes the
  // entry. The feed also streams every byte through the content digest.
  // A non-contiguous source is read by two independent ReadAt streams,
  // scan and feed, each through its own rolling buffer.
  Hash64Stream hasher;
  CountingSink discard;
  core::RunStats stats;
  core::PrefilterSession session(tables, &discard, &stats, opts.engine);
  uint64_t feed_pos = 0;
  std::vector<char> feed_buf;
  Status run_status = Status::Ok();

  // Feeds [feed_pos, to): every byte goes through the digest, and through
  // the engine until it reports itself finished.
  auto feed_to = [&](uint64_t to) -> Status {
    while (feed_pos < to) {
      SMPX_ASSIGN_OR_RETURN(
          std::string_view piece,
          ReadRange(src, feed_pos,
                    static_cast<size_t>(std::min(feed_chunk, to - feed_pos)),
                    &feed_buf));
      hasher.Update(piece);
      if (run_status.ok() && !session.finished()) {
        run_status = session.Resume(piece);
      }
      feed_pos += piece.size();
    }
    return Status::Ok();
  };

  Status feed_status = Status::Ok();
  uint64_t prev_boundary = 0;
  SMPX_RETURN_IF_ERROR(parallel::ForEachTopLevelBoundary(
      src, chunk, max_splits, [&](uint64_t t, uint64_t records) {
        feed_status = feed_to(t);
        // A finished run ignores later bytes: later boundaries are
        // unreachable.
        if (!feed_status.ok() || !run_status.ok() || session.finished()) {
          return false;
        }
        IndexEntry e;
        e.offset = t;
        // The engine finalizes stats.output_bytes only at the end of a
        // run; mid-stream the sink's own count is the projection offset.
        e.out_offset = discard.bytes_written();
        e.record_ordinal = records;
        e.checkpoint = session.checkpoint();
        if (e.checkpoint.copy_depth == 0) {
          // Out of copy mode, copy_flushed is dormant bookkeeping (the next
          // copy entry resets it), but its value depends on where earlier
          // feeds cut the input. Canonicalize it so the file does not
          // depend on the source kind or chunk size.
          e.checkpoint.copy_flushed =
              std::max(e.checkpoint.copy_flushed, prev_boundary);
        }
        e.stats = StatsPrefix::FromRunStats(stats);
        idx.entries_.push_back(e);
        prev_boundary = t;
        return true;
      }));
  SMPX_RETURN_IF_ERROR(feed_status);
  if (!run_status.ok()) return run_status;

  // Tail: engine to end-of-document (a broken document must fail the
  // build), digest over every byte.
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
    // strictly increasing).
    return Corrupt("entry count " + std::to_string(count) +
                   " exceeds document size");
  }
  if (count > r.remaining() / kMinEntryBytes) {
    // Bounds the allocation below by the file's own size: a resealed
    // header may claim any count up to the (equally claimed) doc size.
    return Corrupt("entry count " + std::to_string(count) + " exceeds the " +
                   std::to_string(r.remaining()) + " entry bytes");
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
