// Byte-stream abstractions: random-access input sources (the library's one
// input type), append-only output sinks, and the sliding window the runtime
// engine scans through.

#ifndef SMPX_COMMON_IO_H_
#define SMPX_COMMON_IO_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace smpx {

/// Random-access view of a whole input of known size: the one input type
/// every driver reads (core::RunEngine, the batch drivers, the index
/// build). An InputSource is stateless per read: concurrent ReadAt calls
/// from multiple threads are safe, which is what the parallel sharding and
/// batch layers build on. Implementations are backed by caller memory
/// (zero copy), by mmap'ed files, or by positioned file reads.
class InputSource {
 public:
  virtual ~InputSource() = default;

  /// Total number of bytes in the input.
  virtual uint64_t size() const = 0;

  /// Reads up to `len` bytes starting at absolute `offset` into `buf`.
  /// Returns the number of bytes read (short only at end of input).
  /// Thread-safe.
  virtual Result<size_t> ReadAt(uint64_t offset, char* buf,
                                size_t len) const = 0;

  /// Zero-copy view of the whole input when the backing storage is
  /// contiguous in memory (MemorySource, MmapSource); empty otherwise.
  /// The view stays valid for the lifetime of the source.
  virtual std::string_view Contiguous() const { return {}; }
};

/// Bytes [offset, offset + len) of `src`: a view into Contiguous() when the
/// source is resident, otherwise read into `scratch` (resized to `len`) by
/// as many ReadAt calls as it takes. The view stays valid until the source
/// dies or `scratch` changes. Fails with kIoError when the source ends
/// before offset + len (it shrank under the reader).
Result<std::string_view> ReadRange(const InputSource& src, uint64_t offset,
                                   size_t len, std::vector<char>* scratch);

/// InputSource over caller-owned memory (zero copy).
class MemorySource : public InputSource {
 public:
  explicit MemorySource(std::string_view data) : data_(data) {}

  uint64_t size() const override { return data_.size(); }
  Result<size_t> ReadAt(uint64_t offset, char* buf,
                        size_t len) const override;
  std::string_view Contiguous() const override { return data_; }

 private:
  std::string_view data_;
};

/// The historical name of MemorySource, kept for smpx-bench/src, which
/// names it.
using MemoryInputStream = MemorySource;

/// InputSource over an mmap'ed file (POSIX; falls back to reading the file
/// into memory elsewhere). The mapping is advised for sequential access so
/// cold files stream through the page cache instead of faulting randomly.
class MmapSource : public InputSource {
 public:
  static Result<std::unique_ptr<MmapSource>> Open(const std::string& path);
  ~MmapSource() override;

  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  uint64_t size() const override { return view_.size(); }
  Result<size_t> ReadAt(uint64_t offset, char* buf,
                        size_t len) const override;
  std::string_view Contiguous() const override { return view_; }

 private:
  MmapSource(std::string_view view, void* map_base, std::string fallback)
      : view_(view), map_base_(map_base), fallback_(std::move(fallback)) {}

  std::string_view view_;
  void* map_base_;        // non-null iff backed by an actual mapping
  std::string fallback_;  // owns the bytes when mmap was unavailable
};

/// InputSource over a file descriptor via positioned reads (pread), never
/// mapping the file: the random-access path for documents too large to
/// mmap in one piece (or at all on 32-bit address spaces). Each ReadAt is
/// an independent positioned read, so concurrent readers need no locking.
/// On platforms without POSIX pread, Open falls back to owned memory the
/// same way MmapSource does.
class FileSource : public InputSource {
 public:
  static Result<std::unique_ptr<FileSource>> Open(const std::string& path);
  ~FileSource() override;

  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;

  uint64_t size() const override { return size_; }
  Result<size_t> ReadAt(uint64_t offset, char* buf,
                        size_t len) const override;
  /// Deliberately no Contiguous(): callers must go through ReadAt, which
  /// is the point of this source.

 private:
  FileSource(int fd, uint64_t size, std::string fallback)
      : fd_(fd), size_(size), fallback_(std::move(fallback)) {}

  int fd_;                // -1 when backed by the in-memory fallback
  uint64_t size_;
  std::string fallback_;  // owns the bytes when pread was unavailable
};

/// Abstract append-only byte sink.
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Total bytes appended so far.
  uint64_t bytes_written() const { return bytes_written_; }

 protected:
  uint64_t bytes_written_ = 0;
};

/// Accumulates output into an owned string.
class StringSink : public OutputSink {
 public:
  Status Append(std::string_view data) override {
    out_.append(data);
    bytes_written_ += data.size();
    return Status::Ok();
  }
  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  std::string out_;
};

/// Discards output but counts bytes; used by throughput benchmarks.
class CountingSink : public OutputSink {
 public:
  Status Append(std::string_view data) override {
    bytes_written_ += data.size();
    return Status::Ok();
  }
};

/// Duplicates every appended byte into each of N downstream sinks, in
/// order. The multi-query layer routes a collapsed duplicate query's
/// output through this so every original query still gets its own stream
/// without buffering the shared bytes. bytes_written() counts one copy.
class FanoutSink : public OutputSink {
 public:
  explicit FanoutSink(std::vector<OutputSink*> sinks)
      : sinks_(std::move(sinks)) {}

  Status Append(std::string_view data) override {
    for (OutputSink* s : sinks_) {
      SMPX_RETURN_IF_ERROR(s->Append(data));
    }
    bytes_written_ += data.size();
    return Status::Ok();
  }

 private:
  std::vector<OutputSink*> sinks_;
};

/// Write-coalescing sink over a stdio FILE: appends accumulate in an owned
/// buffer and reach the file in large fwrite calls, so the per-Append cost
/// of a fine-grained producer (the engine emits one Append per copy-region
/// flush safe-point) stays a memcpy. Appends at or above the buffer
/// capacity bypass the buffer entirely. A short write puts the sink into a
/// sticky failed state: the Status reports how many bytes of the write
/// actually reached the file, and every later Append/Flush returns that
/// same error without touching the stream again (so a caller retrying
/// Flush after a failure cannot double-write or mask the original cause).
class BufferedFileSink : public OutputSink {
 public:
  static constexpr size_t kDefaultBuffer = 1 << 20;  // 1 MiB

  /// Opens `path` for binary writing (owns the handle).
  static Result<std::unique_ptr<BufferedFileSink>> Open(
      const std::string& path, size_t buffer_capacity = kDefaultBuffer);
  /// Wraps an existing handle (e.g. stdout) without owning it; the caller
  /// must Flush() before the handle is used elsewhere or closed.
  static std::unique_ptr<BufferedFileSink> Wrap(
      std::FILE* f, size_t buffer_capacity = kDefaultBuffer);
  ~BufferedFileSink() override;  // flushes best-effort, closes if owned

  Status Append(std::string_view data) override;
  /// Drains the coalescing buffer and fflushes the handle.
  Status Flush();

 private:
  // The buffer is left uninitialized: only bytes below fill_ are ever
  // read, and zero-filling a 1 MiB buffer would make every opened sink
  // touch (and keep resident) all of it before its first byte.
  BufferedFileSink(std::FILE* f, bool owns, size_t capacity)
      : file_(f),
        owns_(owns),
        capacity_(capacity > 0 ? capacity : 1),
        buf_(new char[capacity_]) {}
  Status WriteOut(const char* data, size_t len);  // fwrite + short-write check
  Status Drain();

  std::FILE* file_;
  bool owns_;
  size_t capacity_;
  std::unique_ptr<char[]> buf_;
  size_t fill_ = 0;
  Status error_;  // first failure; sticky
};

/// A shared spill file: many SpillSinks append byte extents into ONE
/// unlinked temporary file instead of opening one tmpfile each, so a
/// thousand-document batch (or a wide speculative wave) costs a single
/// file descriptor no matter how many segments overflow or park. On
/// POSIX, extents are written with pwrite and replayed with pread --
/// no shared seek state, so sinks on different threads never contend on
/// file position and only extent allocation takes the mutex; elsewhere a
/// portable seek+stdio path runs entirely under the mutex. Space is
/// reclaimed in epochs: when every extent handed out has been released
/// (all sinks cleared or destroyed), the file truncates back to zero.
/// That fits the ordered-commit lifecycle -- drivers drain segments in
/// waves -- without free-list bookkeeping. The arena must outlive every
/// sink constructed over it.
class SpillArena {
 public:
  SpillArena() = default;
  ~SpillArena();

  SpillArena(const SpillArena&) = delete;
  SpillArena& operator=(const SpillArena&) = delete;

  /// Appends `data` as a new extent; `*offset` receives its position.
  /// Opens the backing file lazily on first use.
  Status Write(std::string_view data, uint64_t* offset);
  /// Reads `len` bytes at `offset` (previously written) into `buf`.
  Status Read(uint64_t offset, char* buf, size_t len);
  /// Returns `bytes` of extent space; when everything handed out has been
  /// released the backing file truncates to zero length.
  void Release(uint64_t bytes);

  /// Open backing files held by this arena (0 before first spill, then
  /// 1); the fd-count observable the batch tests assert on.
  int open_files() const;

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;  // unlinked tmpfile backing every extent
  int fd_ = -1;                // fileno(file_) for pwrite/pread (POSIX)
  uint64_t end_ = 0;           // allocation frontier
  uint64_t live_ = 0;          // bytes handed out and not yet released
};

/// Bounded-memory accumulator: appends stay in an owned string up to
/// `budget` bytes, then everything overflows to extents of a SpillArena
/// and the string is freed -- so a segment of unknown size costs at most
/// `budget` resident bytes no matter how large it grows. The accumulated
/// bytes are replayed with CopyTo (repeatable; appends may continue after
/// a replay) and dropped with Clear for reuse. Budget edge semantics: a
/// sink holding exactly `budget` bytes has not spilled; the first byte
/// beyond it moves the whole content to disk. kUnlimited never spills
/// (pure in-memory accumulation, like StringSink).
///
/// Overflow goes to the arena passed in -- drivers share one, so they cost
/// O(1) fds however many segments spill -- or, without one, to a private
/// arena the sink creates on its first overflow.
class SpillSink : public OutputSink {
 public:
  static constexpr size_t kUnlimited = ~size_t{0};

  explicit SpillSink(size_t budget = kUnlimited, SpillArena* arena = nullptr)
      : budget_(budget), arena_(arena) {}
  ~SpillSink() override;

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  Status Append(std::string_view data) override;

  /// Streams every appended byte, in order, into `out` (in bounded chunks
  /// when spilled). Repeatable; the sink stays appendable afterwards.
  Status CopyTo(OutputSink* out);

  /// Drops all content (buffer and spill extents) and clears any sticky
  /// error; the sink is reusable as if freshly constructed.
  /// bytes_written() resets too.
  void Clear();

  /// Moves any resident bytes to the spill file immediately, regardless of
  /// budget; used by ordered committers to park completed segments that
  /// cannot commit yet at ~zero resident cost. No-op for kUnlimited sinks
  /// (they are deliberately memory-backed) and empty sinks.
  Status ForceSpill();

  size_t budget() const { return budget_; }
  bool spilled() const { return spilled_; }
  /// Bytes currently held in memory (the spill file holds the rest).
  size_t resident_bytes() const { return mem_.size(); }

 private:
  struct Extent {
    uint64_t offset;
    uint64_t size;
  };

  /// Moves mem_ and then `data` to arena extents; the sink has spilled.
  Status Spill(std::string_view data);
  Status SpillToArena(std::string_view data);  // append one extent

  size_t budget_;
  std::string mem_;
  SpillArena* arena_;  // shared spill file, or own_arena_ once created
  std::unique_ptr<SpillArena> own_arena_;  // spill file of an arena-less sink
  bool spilled_ = false;
  std::vector<Extent> extents_;
  uint64_t extent_bytes_ = 0;   // total extent space to release
  Status error_;                // first failure; sticky
};

/// Streams N document-order segments into one downstream sink with bounded
/// buffering: segment k's bytes (a SpillSink filled by whoever produced
/// them) are installed when k is known to be final, and the moment the
/// commit frontier reaches a segment it is replayed downstream and freed.
/// Installs may arrive in any order from any thread (the batch driver
/// installs from pool workers as documents finish); a segment installed
/// ahead of the frontier is force-spilled so waiting costs disk, not
/// memory. Downstream writes happen on whichever caller's thread advances
/// the frontier, never concurrently.
class OrderedCommitSink {
 public:
  /// Per-segment commit callback, for pipelines whose segments go to
  /// DIFFERENT destinations (e.g. one output file per batch document):
  /// invoked exactly once per non-truncated segment, in segment order, on
  /// whichever caller thread advances the frontier (never concurrently).
  /// `segment` may be null (empty segment). A non-OK return sticks and
  /// stops the frontier, exactly like a downstream Append failure --
  /// writers wanting per-segment error isolation record the failure
  /// themselves and return Ok.
  using SegmentWriter =
      std::function<Status(size_t k, SpillSink* segment)>;

  /// Commits each segment through `writer`. At most one segment is being
  /// written at any moment, which is what caps the number of
  /// simultaneously open output files in the per-input batch driver no
  /// matter how large the batch is.
  OrderedCommitSink(SegmentWriter writer, size_t segments);

  /// Replays every segment into `down`, which must outlive this object and
  /// is not written to concurrently with direct use by the caller.
  OrderedCommitSink(OutputSink* down, size_t segments);

  OrderedCommitSink(const OrderedCommitSink&) = delete;
  OrderedCommitSink& operator=(const OrderedCommitSink&) = delete;

  /// Installs segment k's final content (null = empty segment) and commits
  /// every consecutive ready segment at the frontier. Returns the sticky
  /// writer/replay/spill error, if any. Once an error sticks the frontier
  /// never moves again, so nothing is kept for it: the pending segments are
  /// freed when it sticks, and a later install is freed at once and returns
  /// the error. Thread-safe.
  Status Install(size_t k, std::unique_ptr<SpillSink> segment);

  /// Declares that segments [k, N) will never be installed: the frontier
  /// stops before k forever and pending segments at or beyond k are freed.
  /// Used for early-finishing runs (trailing shards unused) and for
  /// first-error-stops-the-merge semantics. Thread-safe; keeps the
  /// lowest k across calls.
  void Truncate(size_t k);

  /// Next segment index awaiting commit; == segments() when all committed.
  size_t frontier() const;
  /// True once every non-truncated segment has been committed.
  bool finished() const;
  /// Bytes replayed into the downstream sink so far.
  uint64_t committed_bytes() const;
  /// Sticky first error from a downstream Append or a spill replay.
  Status status() const;

 private:
  /// Advances the frontier. Called with `lock` held; segment replays drop
  /// the lock (the committing_ flag keeps commits single-threaded).
  Status CommitReady(std::unique_lock<std::mutex>& lock);
  /// mu_ held. Makes `s` the sticky error unless one stuck first, and frees
  /// every pending segment: the frontier will not reach them.
  void FailLocked(const Status& s);

  SegmentWriter writer_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpillSink>> pending_;
  std::vector<bool> ready_;
  size_t limit_;             // segments >= limit_ are truncated
  size_t frontier_ = 0;      // next segment to commit
  bool committing_ = false;  // a thread is replaying outside the lock
  uint64_t committed_bytes_ = 0;
  Status error_;  // first failure; sticky
};

/// A sliding window over a document fed in chunks, with absolute
/// (whole-document) byte positions. Its geometry is the paper's fixed-size
/// chunked read buffer (Section V: "a pre-allocated buffer to read the
/// document in fixed-size chunks, which we set to eight times the system
/// page size"): at most capacity() bytes are resident, and refills slide
/// the window forward.
///
/// The engine scans forward through the window and occasionally jumps back a
/// bounded distance (right-to-left keyword verification, copy-region start
/// positions). `set_lock()` marks the oldest absolute position that must
/// stay resident; the window slides past everything older, invoking the
/// eviction hook so that pending copy output can be flushed incrementally.
/// The capacity grows only if the locked region itself outgrows it (e.g. a
/// single element copied as one piece larger than the window).
///
/// Bytes arrive by Feed(chunk), and the window takes them from the fed
/// chunk in capacity-sized pieces. Reading past the fed bytes looks like
/// end of input (eof_seen()) until the next Feed. Storage is borrowed, not
/// pre-allocated: while the resident bytes form one range of the caller's
/// memory, the window points into it and copies nothing. It copies into
/// owned storage only when a piece does not continue the resident bytes in
/// memory -- after Materialize, or across separately allocated chunks;
/// that storage is allocated on first need, sized to what it holds
/// (growing toward the capacity), and never zero-filled. Where the bytes
/// live never changes the geometry: base, limit, capacity, eviction order
/// and max_capacity_used() are the same however the same bytes are fed.
class SlidingWindow {
 public:
  /// Hook invoked with evicted bytes, in document order, before discard.
  using EvictFn = std::function<void(uint64_t begin, std::string_view data)>;

  static constexpr size_t kDefaultCapacity = 8 * 4096;  // 8 pages

  /// `origin` is the absolute position of the first byte fed; window
  /// positions are absolute, so a session resuming at byte offset k of a
  /// document passes origin = k.
  explicit SlidingWindow(size_t capacity = kDefaultCapacity,
                         uint64_t origin = 0);

  /// Makes `chunk` the next bytes of the document, following every byte
  /// fed before, and clears eof_seen(). Call it once the previous chunk is
  /// used up (eof_seen()). The window scans `chunk` in place, so its memory
  /// must stay valid until the window is materialized or fed again.
  void Feed(std::string_view chunk) {
    pending_ = chunk;
    eof_ = false;
  }

  /// Makes bytes [pos, pos+len) resident, sliding/refilling as needed.
  /// Returns the number of bytes actually available (< len only when the
  /// fed bytes run out).
  size_t Ensure(uint64_t pos, size_t len);

  /// Returns the resident view starting at `pos`, ensuring at least `len`
  /// bytes when possible. The view may be longer than `len`.
  std::string_view View(uint64_t pos, size_t len);

  /// Maximal resident view starting at `pos` WITHOUT taking fed bytes;
  /// empty when `pos` is not resident. The bulk-scanning fast paths run
  /// pointer loops (memchr) over this span and only fall back to RefillAt
  /// at span boundaries.
  std::string_view Span(uint64_t pos) const {
    if (pos < base_ || pos >= base_ + size_) return {};
    return std::string_view(data_ + (pos - base_),
                            static_cast<size_t>(base_ + size_ - pos));
  }

  /// Slides/refills so at least one byte at `pos` is resident (respecting
  /// the lock) and returns the maximal resident view there; empty when the
  /// fed bytes run out.
  std::string_view RefillAt(uint64_t pos) { return View(pos, 1); }

  /// Byte at absolute position `pos`; caller must have Ensure()d it.
  char At(uint64_t pos) const { return data_[pos - base_]; }

  /// True once the fed bytes are used up *and* `pos` is at or past the
  /// last of them.
  bool AtEnd(uint64_t pos);

  /// Copies the resident bytes into owned storage if they are lent, so the
  /// window no longer refers to the fed chunk's memory. A session calls
  /// this before it returns suspended: its caller may reuse the chunk's
  /// memory once Resume returns. Views obtained earlier are invalidated;
  /// the geometry is unchanged.
  void Materialize();

  /// Oldest absolute position that must remain resident (see class comment).
  void set_lock(uint64_t pos) { lock_ = pos; }
  uint64_t lock() const { return lock_; }

  void set_evict_fn(EvictFn fn) { evict_fn_ = std::move(fn); }

  /// First resident absolute position.
  uint64_t base() const { return base_; }
  /// One past the last resident absolute position, which is also one past
  /// the last byte taken from the fed chunks.
  uint64_t limit() const { return base_ + size_; }
  /// Current capacity: the most bytes the window holds resident (grows
  /// only when the locked span forces it). Not the bytes allocated.
  size_t capacity() const { return capacity_; }
  /// High-water mark of capacity(); bounds the window's memory.
  size_t max_capacity_used() const { return max_capacity_; }
  /// Absolute position of the first byte fed.
  uint64_t origin() const { return origin_; }

  /// True once a refill wanted more bytes than were fed; Feed clears it.
  bool eof_seen() const { return eof_; }

 private:
  void SlideTo(uint64_t new_base);
  void Fill();
  /// Takes up to `len` of the fed bytes not taken yet; empty when the fed
  /// chunk is used up.
  std::string_view Take(size_t len);
  /// Moves the resident bytes into owned storage with room for `n` bytes
  /// in total (n >= size_) and returns its start.
  char* Own(size_t n);

  std::string_view pending_;     // fed bytes not taken yet
  size_t capacity_;
  std::unique_ptr<char[]> own_;  // owned storage, allocated on first need
  size_t own_cap_ = 0;
  const char* data_ = nullptr;   // byte at base_: in own_ or lent memory
  bool lent_ = false;            // data_ points into fed memory
  uint64_t origin_ = 0; // absolute position of the first byte fed
  uint64_t base_ = 0;   // absolute position of data_[0]
  size_t size_ = 0;     // resident bytes at data_
  uint64_t lock_ = 0;   // bytes >= lock_ must stay resident
  bool eof_ = false;
  size_t max_capacity_ = 0;
  EvictFn evict_fn_;
};

/// Per-input projection output naming used by batch pipelines:
/// "dir/in.xml" -> "dir/in.proj.xml"; non-".xml" inputs get ".proj.xml"
/// appended ("data.bin" -> "data.bin.proj.xml").
std::string ProjectedOutputPath(const std::string& input_path);

/// Reads `f` to its end into a string, failing with kIoError when a read
/// fails (a directory on stdin, say) rather than returning the bytes read
/// so far. Does not close `f`.
Result<std::string> ReadStdioToString(std::FILE* f);

/// Reads a whole file into a string (ReadStdioToString over the opened
/// file).
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `data` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, std::string_view data);

}  // namespace smpx

#endif  // SMPX_COMMON_IO_H_
