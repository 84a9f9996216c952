#include "index/cursor.h"

#include <algorithm>

#include "common/hash.h"
#include "index/wire.h"

namespace smpx::index {
namespace {

constexpr char kTokenMagic[8] = {'S', 'M', 'P', 'X', 'C', 'T', 'K', '1'};

constexpr uint8_t kFlagPrologDone = 1;
constexpr uint8_t kFlagJumpPending = 2;
constexpr uint8_t kFlagFinished = 4;
constexpr uint8_t kFlagFromScratch = 8;

/// Forwards appends to a caller sink (or discards) while counting, so one
/// session can serve many Next() calls with different sinks.
class ForwardSink : public OutputSink {
 public:
  explicit ForwardSink(OutputSink* down) : down_(down) {}
  Status Append(std::string_view data) override {
    bytes_written_ += data.size();
    return down_ != nullptr ? down_->Append(data) : Status::Ok();
  }

 private:
  OutputSink* down_;
};

Status BadToken(const std::string& what) {
  return Status::InvalidArgument("invalid cursor token: " + what);
}

}  // namespace

Result<Cursor> Cursor::OpenAt(const BoundaryIndex& index,
                              const core::RuntimeTables& tables,
                              std::string_view doc, uint64_t byte_target,
                              const CursorOptions& opts) {
  return OpenAtEntry(index, tables, doc, index.FindEntry(byte_target), opts);
}

Result<Cursor> Cursor::OpenAtRecord(const BoundaryIndex& index,
                                    const core::RuntimeTables& tables,
                                    std::string_view doc,
                                    uint64_t record_target,
                                    const CursorOptions& opts) {
  return OpenAtEntry(index, tables, doc, index.FindRecord(record_target),
                     opts);
}

Result<Cursor> Cursor::OpenAtEntry(const BoundaryIndex& index,
                                   const core::RuntimeTables& tables,
                                   std::string_view doc, int64_t j,
                                   const CursorOptions& opts) {
  if (opts.verify_document) {
    SMPX_RETURN_IF_ERROR(index.Matches(doc, tables));
  }
  Cursor c(&index, &tables, doc, opts);
  if (j < 0) {
    c.from_scratch_ = true;
  } else {
    const IndexEntry& e = index.entries()[static_cast<size_t>(j)];
    c.ckpt_ = e.checkpoint;
    c.pos_ = e.offset;
    c.out_pos_ = e.out_offset;
    c.next_entry_ = static_cast<size_t>(j) + 1;
  }
  return c;
}

Status Cursor::Advance(uint64_t feed_end, bool to_eof, OutputSink* out) {
  // A resumed session is fed from the checkpoint's feed position, which
  // can lag the boundary (copy bytes pending emission) or lead it (an
  // initial jump carried the cursor past the next boundary); in the
  // latter case there is nothing to feed for this span.
  uint64_t feed = from_scratch_ ? 0 : ckpt_.feed_begin();
  if (!to_eof && feed >= feed_end) return Status::Ok();
  ForwardSink fwd(out);
  core::RunStats stats;
  core::PrefilterSession session(*tables_, &fwd, &stats, opts_.engine,
                                 from_scratch_ ? nullptr : &ckpt_);
  const uint64_t begin = std::min<uint64_t>(feed, doc_.size());
  const uint64_t end =
      std::max<uint64_t>(begin, std::min<uint64_t>(feed_end, doc_.size()));
  const std::string_view bytes = doc_.substr(
      static_cast<size_t>(begin), static_cast<size_t>(end - begin));
  SMPX_RETURN_IF_ERROR(to_eof ? session.Finish(bytes)
                              : session.Resume(bytes));
  from_scratch_ = false;
  ckpt_ = session.checkpoint();
  out_pos_ += fwd.bytes_written();
  if (session.finished() || to_eof) finished_ = true;
  return Status::Ok();
}

Result<size_t> Cursor::Next(size_t n_spans, OutputSink* out) {
  if (n_spans == 0 || finished_) return size_t{0};
  const std::vector<IndexEntry>& entries = index_->entries();
  const size_t remaining_boundaries = entries.size() - next_entry_;
  if (n_spans <= remaining_boundaries) {
    const size_t stop_idx = next_entry_ + n_spans - 1;
    const uint64_t stop = entries[stop_idx].offset;
    SMPX_RETURN_IF_ERROR(Advance(stop, /*to_eof=*/false, out));
    next_entry_ = stop_idx + 1;
    pos_ = stop;
    if (finished_) {
      // The run reached a final state inside the range: the projection is
      // complete and every remaining span is trivially consumed.
      next_entry_ = entries.size();
      pos_ = doc_.size();
    }
    return n_spans;
  }
  // Fewer boundaries remain than requested spans: the last span runs to
  // the end of the document.
  const size_t spans = remaining_boundaries + 1;
  SMPX_RETURN_IF_ERROR(Advance(doc_.size(), /*to_eof=*/true, out));
  next_entry_ = entries.size();
  pos_ = doc_.size();
  return spans;
}

Status Cursor::Drain(OutputSink* out) {
  if (finished_) return Status::Ok();
  SMPX_RETURN_IF_ERROR(Advance(doc_.size(), /*to_eof=*/true, out));
  next_entry_ = index_->entries().size();
  pos_ = doc_.size();
  return Status::Ok();
}

std::string Cursor::SaveToken() const {
  std::string t;
  t.append(kTokenMagic, sizeof(kTokenMagic));
  wire::PutU64(&t, index_->doc_size());
  wire::PutU64(&t, index_->doc_digest());
  wire::PutU64(&t, index_->tables_fingerprint());
  t.push_back(static_cast<char>(
      (ckpt_.prolog_done ? kFlagPrologDone : 0) |
      (ckpt_.jump_pending ? kFlagJumpPending : 0) |
      (finished_ ? kFlagFinished : 0) |
      (from_scratch_ ? kFlagFromScratch : 0)));
  wire::PutVarint(&t, next_entry_);
  wire::PutVarint(&t, pos_);
  wire::PutVarint(&t, out_pos_);
  wire::PutVarint(&t, static_cast<uint64_t>(ckpt_.state));
  wire::PutVarint(&t, ckpt_.cursor);
  wire::PutVarint(&t, ckpt_.nesting_depth);
  wire::PutVarint(&t, static_cast<uint64_t>(ckpt_.copy_depth));
  wire::PutVarint(&t, ckpt_.copy_flushed);
  wire::PutU64(&t, Hash64(t));
  return t;
}

Result<Cursor> Cursor::Restore(const BoundaryIndex& index,
                               const core::RuntimeTables& tables,
                               std::string_view doc, std::string_view token,
                               const CursorOptions& opts) {
  if (token.size() < sizeof(kTokenMagic) + 8) {
    return BadToken("truncated");
  }
  wire::Reader footer(token.substr(token.size() - 8));
  uint64_t stored_hash = 0;
  footer.ReadU64(&stored_hash);
  if (Hash64(token.substr(0, token.size() - 8)) != stored_hash) {
    return BadToken("content hash mismatch");
  }
  if (token.compare(0, sizeof(kTokenMagic),
                    std::string_view(kTokenMagic, sizeof(kTokenMagic))) !=
      0) {
    return BadToken("bad magic");
  }
  wire::Reader r(token.substr(0, token.size() - 8));
  r.Skip(sizeof(kTokenMagic));
  uint64_t doc_size = 0, doc_digest = 0, tables_fp = 0;
  r.ReadU64(&doc_size);
  r.ReadU64(&doc_digest);
  r.ReadU64(&tables_fp);
  if (doc_size != index.doc_size() || doc_digest != index.doc_digest() ||
      tables_fp != index.tables_fingerprint()) {
    return BadToken(
        "minted over a different document, index, or compiled tables");
  }
  if (opts.verify_document) {
    SMPX_RETURN_IF_ERROR(index.Matches(doc, tables));
  }
  uint8_t flags = 0;
  uint64_t next_entry = 0, pos = 0, out_pos = 0;
  uint64_t state = 0, cursor = 0, nesting = 0, copy_depth = 0,
           copy_flushed = 0;
  r.ReadByte(&flags);
  r.ReadVarint(&next_entry);
  r.ReadVarint(&pos);
  r.ReadVarint(&out_pos);
  r.ReadVarint(&state);
  r.ReadVarint(&cursor);
  r.ReadVarint(&nesting);
  r.ReadVarint(&copy_depth);
  r.ReadVarint(&copy_flushed);
  if (r.failed() || r.remaining() != 0) return BadToken("malformed fields");
  if (next_entry > index.entries().size() || pos > doc.size() ||
      state >= static_cast<uint64_t>(tables.states.size())) {
    return BadToken("fields out of range");
  }
  Cursor c(&index, &tables, doc, opts);
  c.from_scratch_ = (flags & kFlagFromScratch) != 0;
  c.finished_ = (flags & kFlagFinished) != 0;
  c.next_entry_ = static_cast<size_t>(next_entry);
  c.pos_ = pos;
  c.out_pos_ = out_pos;
  c.ckpt_.state = static_cast<int>(state);
  c.ckpt_.cursor = cursor;
  c.ckpt_.nesting_depth = nesting;
  c.ckpt_.copy_depth = static_cast<int>(copy_depth);
  c.ckpt_.copy_flushed = copy_flushed;
  c.ckpt_.prolog_done = (flags & kFlagPrologDone) != 0;
  c.ckpt_.jump_pending = (flags & kFlagJumpPending) != 0;
  return c;
}

}  // namespace smpx::index
