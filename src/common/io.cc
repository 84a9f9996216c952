#include "common/io.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#if defined(__unix__) || defined(__APPLE__)
#define SMPX_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace smpx {

Result<size_t> MemoryInputStream::Read(char* buf, size_t len) {
  const std::string_view piece = *Lend(len);
  std::copy(piece.begin(), piece.end(), buf);
  return piece.size();
}

std::optional<std::string_view> MemoryInputStream::Lend(size_t len) {
  std::string_view piece = data_.substr(pos_, len);
  pos_ += piece.size();
  return piece;
}

Result<std::string_view> ReadRange(const InputSource& src, uint64_t offset,
                                   size_t len, std::vector<char>* scratch) {
  const std::string_view whole = src.Contiguous();
  if (whole.size() == src.size() && offset + len <= whole.size()) {
    return whole.substr(static_cast<size_t>(offset), len);
  }
  scratch->resize(len);
  size_t done = 0;
  while (done < len) {
    SMPX_ASSIGN_OR_RETURN(size_t n, src.ReadAt(offset + done,
                                               scratch->data() + done,
                                               len - done));
    if (n == 0) {
      return Status::IoError("input source shrank at offset " +
                             std::to_string(offset + done));
    }
    done += n;
  }
  return std::string_view(scratch->data(), len);
}

Result<size_t> MemorySource::ReadAt(uint64_t offset, char* buf,
                                    size_t len) const {
  if (offset >= data_.size()) return static_cast<size_t>(0);
  size_t n = std::min<uint64_t>(len, data_.size() - offset);
  std::memcpy(buf, data_.data() + offset, n);
  return n;
}

Result<std::unique_ptr<MmapSource>> MmapSource::Open(
    const std::string& path) {
#ifdef SMPX_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IoError("fstat '" + path + "': " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  // Only regular files are mappable (and only for them does st_size mean
  // anything): FIFOs, process substitutions, and /proc-style files go
  // through the streaming fallback below.
  if (S_ISREG(st.st_mode)) {
    size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return std::unique_ptr<MmapSource>(
          new MmapSource(std::string_view(), nullptr, std::string()));
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);  // the mapping keeps the pages alive
      // The prefilter scans strictly forward; tell the kernel so
      // readahead stays aggressive and cold files stream instead of
      // faulting randomly.
      ::madvise(map, size, MADV_SEQUENTIAL);
      ::madvise(map, size, MADV_WILLNEED);
      return std::unique_ptr<MmapSource>(new MmapSource(
          std::string_view(static_cast<const char*>(map), size), map,
          std::string()));
    }
  }
  ::close(fd);
#endif
  // No mmap (or it failed, e.g. on a pipe): fall back to owned memory.
  SMPX_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  auto src = std::unique_ptr<MmapSource>(
      new MmapSource(std::string_view(), nullptr, std::move(content)));
  src->view_ = src->fallback_;
  return src;
}

MmapSource::~MmapSource() {
#ifdef SMPX_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, view_.size());
  }
#endif
}

Result<size_t> MmapSource::ReadAt(uint64_t offset, char* buf,
                                  size_t len) const {
  if (offset >= view_.size()) return static_cast<size_t>(0);
  size_t n = std::min<uint64_t>(len, view_.size() - offset);
  std::memcpy(buf, view_.data() + offset, n);
  return n;
}

Result<std::unique_ptr<FileSource>> FileSource::Open(
    const std::string& path) {
#ifdef SMPX_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Status::IoError("fstat '" + path + "': " +
                               std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (S_ISREG(st.st_mode)) {
    return std::unique_ptr<FileSource>(new FileSource(
        fd, static_cast<uint64_t>(st.st_size), std::string()));
  }
  ::close(fd);
#endif
  // Pipes, /proc files, or platforms without pread: owned memory.
  SMPX_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  const uint64_t size = content.size();
  return std::unique_ptr<FileSource>(
      new FileSource(-1, size, std::move(content)));
}

FileSource::~FileSource() {
#ifdef SMPX_HAVE_MMAP
  if (fd_ >= 0) ::close(fd_);
#endif
}

Result<size_t> FileSource::ReadAt(uint64_t offset, char* buf,
                                  size_t len) const {
  if (fd_ < 0) {
    if (offset >= fallback_.size()) return static_cast<size_t>(0);
    size_t n = std::min<uint64_t>(len, fallback_.size() - offset);
    std::memcpy(buf, fallback_.data() + offset, n);
    return n;
  }
#ifdef SMPX_HAVE_MMAP
  if (offset >= size_) return static_cast<size_t>(0);
  len = static_cast<size_t>(std::min<uint64_t>(len, size_ - offset));
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::pread(fd_, buf + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) break;  // file shrank under us; report the short read
    done += static_cast<size_t>(n);
  }
  return done;
#else
  return Status::Internal("FileSource without pread support");
#endif
}

Result<std::unique_ptr<FileInputStream>> FileInputStream::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  return std::unique_ptr<FileInputStream>(new FileInputStream(f));
}

FileInputStream::~FileInputStream() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<size_t> FileInputStream::Read(char* buf, size_t len) {
  size_t n = std::fread(buf, 1, len, file_);
  if (n < len && std::ferror(file_)) {
    return Status::IoError("read failed: " +
                           std::string(std::strerror(errno)));
  }
  return n;
}

namespace {

/// Status for a short fwrite: reports how far the data actually got, so a
/// caller resuming or reporting upward knows the exact byte boundary.
Status ShortWriteError(size_t written, size_t expected) {
  return Status::IoError("short write: wrote " + std::to_string(written) +
                         " of " + std::to_string(expected) + " bytes: " +
                         std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<BufferedFileSink>> BufferedFileSink::Open(
    const std::string& path, size_t buffer_capacity) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  return std::unique_ptr<BufferedFileSink>(
      new BufferedFileSink(f, /*owns=*/true, buffer_capacity));
}

std::unique_ptr<BufferedFileSink> BufferedFileSink::Wrap(
    std::FILE* f, size_t buffer_capacity) {
  return std::unique_ptr<BufferedFileSink>(
      new BufferedFileSink(f, /*owns=*/false, buffer_capacity));
}

BufferedFileSink::~BufferedFileSink() {
  Flush();  // best effort; errors are already sticky in error_
  if (owns_ && file_ != nullptr) std::fclose(file_);
}

Status BufferedFileSink::WriteOut(const char* data, size_t len) {
  size_t n = std::fwrite(data, 1, len, file_);
  if (n != len) {
    error_ = ShortWriteError(n, len);
    return error_;
  }
  return Status::Ok();
}

Status BufferedFileSink::Drain() {
  if (fill_ == 0) return Status::Ok();
  size_t n = fill_;
  fill_ = 0;  // even on failure: the buffered bytes' fate is recorded in
              // error_, retrying them would double-write the prefix
  return WriteOut(buf_.get(), n);
}

Status BufferedFileSink::Append(std::string_view data) {
  if (!error_.ok()) return error_;
  if (data.empty()) return Status::Ok();  // may carry a null data pointer
  bytes_written_ += data.size();
  if (data.size() >= capacity_) {
    // Large append: flush what's pending, then write through.
    SMPX_RETURN_IF_ERROR(Drain());
    return WriteOut(data.data(), data.size());
  }
  if (fill_ + data.size() > capacity_) SMPX_RETURN_IF_ERROR(Drain());
  std::memcpy(buf_.get() + fill_, data.data(), data.size());
  fill_ += data.size();
  return Status::Ok();
}

Status BufferedFileSink::Flush() {
  if (!error_.ok()) return error_;  // idempotent after failure
  SMPX_RETURN_IF_ERROR(Drain());
  if (std::fflush(file_) != 0) {
    error_ = Status::IoError("flush failed: " +
                             std::string(std::strerror(errno)));
    return error_;
  }
  return Status::Ok();
}

SpillArena::~SpillArena() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SpillArena::Write(std::string_view data, uint64_t* offset) {
  uint64_t off;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ == nullptr) {
      // tmpfile() is created already unlinked: the bytes live only as
      // long as the handle, and a crashed process leaks nothing on disk.
      file_ = std::tmpfile();
      if (file_ == nullptr) {
        return Status::IoError("cannot create arena spill file: " +
                               std::string(std::strerror(errno)));
      }
#if defined(__unix__) || defined(__APPLE__)
      fd_ = fileno(file_);
#endif
    }
    off = end_;
    end_ += data.size();
    live_ += data.size();
  }
  *offset = off;
#if defined(__unix__) || defined(__APPLE__)
  // Positionless writes: concurrent sinks spill without touching the
  // mutex past the extent allocation above.
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = pwrite(fd_, data.data() + done, data.size() - done,
                       static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("arena write failed: " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
#else
  std::lock_guard<std::mutex> lock(mu_);
  if (std::fseek(file_, static_cast<long>(off), SEEK_SET) != 0) {
    return Status::IoError("arena seek failed: " +
                           std::string(std::strerror(errno)));
  }
  size_t n = std::fwrite(data.data(), 1, data.size(), file_);
  if (n != data.size()) return ShortWriteError(n, data.size());
  return Status::Ok();
#endif
}

Status SpillArena::Read(uint64_t offset, char* buf, size_t len) {
#if defined(__unix__) || defined(__APPLE__)
  size_t done = 0;
  while (done < len) {
    ssize_t n = pread(fd_, buf + done, len - done,
                      static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("arena read failed: " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IoError("arena read truncated");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
#else
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr ||
      std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IoError("arena seek failed");
  }
  size_t n = std::fread(buf, 1, len, file_);
  if (n != len) return Status::IoError("arena read truncated");
  return Status::Ok();
#endif
}

void SpillArena::Release(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  live_ = bytes < live_ ? live_ - bytes : 0;
  if (live_ == 0 && end_ != 0) {
    // Epoch reclamation: nobody holds an extent, so the whole file is
    // garbage. Truncation (not close) keeps the fd stable for reuse.
    end_ = 0;
#if defined(__unix__) || defined(__APPLE__)
    if (fd_ >= 0 && ftruncate(fd_, 0) != 0) {
      // Reclamation is best-effort; allocation stays correct regardless.
    }
#endif
  }
}

int SpillArena::open_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr ? 1 : 0;
}

SpillSink::~SpillSink() {
  if (extent_bytes_ > 0) arena_->Release(extent_bytes_);
}

Status SpillSink::SpillToArena(std::string_view data) {
  uint64_t off = 0;
  Status s = arena_->Write(data, &off);
  if (!s.ok()) {
    error_ = s;
    return error_;
  }
  // Merge extents the arena happened to hand out back-to-back (the common
  // case when no other sink's overflow interleaves).
  if (!extents_.empty() &&
      extents_.back().offset + extents_.back().size == off) {
    extents_.back().size += data.size();
  } else {
    extents_.push_back(Extent{off, data.size()});
  }
  extent_bytes_ += data.size();
  return Status::Ok();
}

Status SpillSink::Spill(std::string_view data) {
  if (arena_ == nullptr) {
    own_arena_ = std::make_unique<SpillArena>();
    arena_ = own_arena_.get();
  }
  spilled_ = true;
  if (!mem_.empty()) {
    SMPX_RETURN_IF_ERROR(SpillToArena(mem_));
    std::string().swap(mem_);  // actually release the buffer capacity
  }
  return data.empty() ? Status::Ok() : SpillToArena(data);
}

Status SpillSink::Append(std::string_view data) {
  if (!error_.ok()) return error_;
  if (data.empty()) return Status::Ok();  // may carry a null data pointer
  if (!spilled_ && mem_.size() + data.size() <= budget_) {
    mem_.append(data);
  } else {
    SMPX_RETURN_IF_ERROR(Spill(data));
  }
  bytes_written_ += data.size();
  return Status::Ok();
}

Status SpillSink::CopyTo(OutputSink* out) {
  if (!error_.ok()) return error_;
  char buf[1 << 16];
  for (const Extent& e : extents_) {
    uint64_t done = 0;
    while (done < e.size) {
      size_t n = static_cast<size_t>(
          std::min<uint64_t>(sizeof(buf), e.size - done));
      Status s = arena_->Read(e.offset + done, buf, n);
      if (!s.ok()) {
        error_ = s;
        return error_;
      }
      // Downstream errors are the caller's, not sticky here.
      SMPX_RETURN_IF_ERROR(out->Append(std::string_view(buf, n)));
      done += n;
    }
  }
  return mem_.empty() ? Status::Ok() : out->Append(mem_);
}

void SpillSink::Clear() {
  std::string().swap(mem_);
  if (extent_bytes_ > 0) arena_->Release(extent_bytes_);
  extents_.clear();
  extent_bytes_ = 0;
  spilled_ = false;
  bytes_written_ = 0;
  error_ = Status::Ok();
}

Status SpillSink::ForceSpill() {
  if (!error_.ok()) return error_;
  if (budget_ == kUnlimited || (!spilled_ && mem_.empty())) {
    return Status::Ok();
  }
  return Spill({});
}

OrderedCommitSink::OrderedCommitSink(SegmentWriter writer, size_t segments)
    : writer_(std::move(writer)),
      pending_(segments),
      ready_(segments, false),
      limit_(segments) {}

OrderedCommitSink::OrderedCommitSink(OutputSink* down, size_t segments)
    : OrderedCommitSink(
          [down](size_t, SpillSink* seg) {
            return seg != nullptr ? seg->CopyTo(down) : Status::Ok();
          },
          segments) {}

Status OrderedCommitSink::CommitReady(std::unique_lock<std::mutex>& lock) {
  if (committing_) return error_;  // the draining thread will pick ours up
  committing_ = true;
  // A sticky error stops the frontier for good: a half-replayed segment
  // must not be skipped over, or the downstream stream would contain a
  // hole instead of a clean prefix.
  while (error_.ok() && frontier_ < limit_ && ready_[frontier_]) {
    std::unique_ptr<SpillSink> seg = std::move(pending_[frontier_]);
    const uint64_t produced = seg != nullptr ? seg->bytes_written() : 0;
    // Write outside the lock -- the committing_ flag keeps commits
    // single-threaded, and holding mu_ across a multi-GB spill replay
    // would block every concurrently finishing producer in Install.
    const size_t k = frontier_;
    lock.unlock();
    Status s = writer_(k, seg.get());
    lock.lock();
    if (!s.ok()) {
      if (error_.ok()) error_ = s;
      break;
    }
    committed_bytes_ += produced;
    ++frontier_;  // seg (buffer and spill extents) is freed here
  }
  committing_ = false;
  return error_;
}

Status OrderedCommitSink::Install(size_t k,
                                  std::unique_ptr<SpillSink> segment) {
  std::unique_lock<std::mutex> lock(mu_);
  if (k >= limit_) return error_;  // truncated away; content is dropped
  if (ready_[k]) {
    if (error_.ok()) {
      error_ = Status::Internal("segment " + std::to_string(k) +
                                " installed twice");
    }
    return error_;
  }
  if (segment != nullptr && k > frontier_) {
    // Parked ahead of the frontier: hold the bytes on disk, not in
    // memory. The spill write happens outside the lock (it can be an
    // up-to-budget copy); a frontier advance in the meantime merely makes
    // the spill redundant, and a racing duplicate install of the same k
    // is caught by re-checking ready_ below.
    lock.unlock();
    Status s = segment->ForceSpill();
    lock.lock();
    if (!s.ok() && error_.ok()) error_ = s;
    if (k >= limit_) return error_;  // truncated while spilling
    if (ready_[k]) {
      if (error_.ok()) {
        error_ = Status::Internal("segment " + std::to_string(k) +
                                  " installed twice");
      }
      return error_;
    }
  }
  pending_[k] = std::move(segment);
  ready_[k] = true;
  return CommitReady(lock);
}

void OrderedCommitSink::Truncate(size_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  if (k >= limit_) return;
  limit_ = k;
  for (size_t i = k; i < pending_.size(); ++i) {
    pending_[i].reset();
    ready_[i] = false;
  }
}

size_t OrderedCommitSink::frontier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frontier_;
}

bool OrderedCommitSink::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frontier_ >= limit_;
}

uint64_t OrderedCommitSink::committed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_bytes_;
}

Status OrderedCommitSink::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

SlidingWindow::SlidingWindow(size_t capacity, uint64_t origin)
    : capacity_(std::max<size_t>(capacity, 64)),
      origin_(origin),
      base_(origin),
      lock_(origin),
      max_capacity_(capacity_) {}

std::string_view SlidingWindow::Take(size_t len) {
  const std::string_view piece = pending_.substr(0, len);
  pending_.remove_prefix(piece.size());
  return piece;
}

char* SlidingWindow::Own(size_t n) {
  if (!lent_ && own_cap_ >= n) return own_.get();
  std::unique_ptr<char[]> fresh;
  char* dst = own_.get();
  if (own_cap_ < n) {
    // Doubling toward the capacity keeps a run of small copies from
    // reallocating per copy. new char[] leaves the bytes uninitialized.
    own_cap_ = std::max(n, std::min(capacity_, 2 * own_cap_));
    fresh.reset(new char[own_cap_]);
    dst = fresh.get();
  }
  if (size_ > 0) std::memcpy(dst, data_, size_);
  if (fresh != nullptr) own_ = std::move(fresh);
  data_ = own_.get();
  lent_ = false;
  return own_.get();
}

void SlidingWindow::Materialize() {
  if (lent_) Own(size_);
}

void SlidingWindow::Fill() {
  while (!eof_ && size_ < capacity_) {
    const std::string_view piece = Take(capacity_ - size_);
    if (piece.empty()) {
      eof_ = true;
      return;
    }
    if (size_ == 0) {
      data_ = piece.data();
      lent_ = true;
    } else if (!lent_ || piece.data() != data_ + size_) {
      // Not a continuation of the resident bytes in memory.
      std::memcpy(Own(size_ + piece.size()) + size_, piece.data(),
                  piece.size());
    }
    size_ += piece.size();
  }
}

void SlidingWindow::SlideTo(uint64_t new_base) {
  if (new_base <= base_) return;
  uint64_t evict_end = std::min<uint64_t>(new_base, base_ + size_);
  if (evict_fn_ && evict_end > base_) {
    evict_fn_(base_, std::string_view(data_,
                                      static_cast<size_t>(evict_end - base_)));
  }
  size_t drop = static_cast<size_t>(new_base - base_);
  if (drop >= size_) {
    // Everything currently resident is discarded; the gap (if any) is
    // bridged by taking and evicting fed bytes, so absolute positions stay
    // exact and any pending copy output still sees every byte. If the fed
    // bytes run out inside the gap, base_ only advances as far as bytes
    // were actually delivered -- later chunks must land at their true
    // absolute positions.
    uint64_t skip = new_base - (base_ + size_);
    uint64_t gap_pos = base_ + size_;
    size_ = 0;
    while (skip > 0 && !eof_) {
      const std::string_view piece =
          Take(static_cast<size_t>(std::min<uint64_t>(skip, capacity_)));
      if (piece.empty()) {
        eof_ = true;
        break;
      }
      if (evict_fn_) evict_fn_(gap_pos, piece);
      gap_pos += piece.size();
      skip -= piece.size();
    }
    base_ = gap_pos;
  } else {
    if (lent_) {
      data_ += drop;
    } else {
      std::memmove(own_.get(), data_ + drop, size_ - drop);
    }
    size_ -= drop;
    base_ = new_base;
  }
}

size_t SlidingWindow::Ensure(uint64_t pos, size_t len) {
  uint64_t want_end = pos + len;
  // Fast path: already resident.
  if (pos >= base_ && want_end <= base_ + size_) return len;
  // Grow if the span from the lock (or pos) to want_end cannot fit. Owned
  // storage follows on its next copy; lent bytes need none.
  uint64_t keep_from = std::min(lock_, pos);
  if (keep_from < base_) keep_from = base_;  // already evicted; nothing to do
  while (want_end - keep_from > capacity_) capacity_ *= 2;
  max_capacity_ = std::max(max_capacity_, capacity_);
  if (keep_from > base_) SlideTo(keep_from);
  if (want_end > base_ + size_) Fill();
  uint64_t avail_end = base_ + size_;
  if (pos >= avail_end) return 0;
  return static_cast<size_t>(std::min<uint64_t>(want_end, avail_end) - pos);
}

std::string_view SlidingWindow::View(uint64_t pos, size_t len) {
  size_t got = Ensure(pos, len);
  if (got == 0) return {};
  return std::string_view(data_ + (pos - base_),
                          static_cast<size_t>(base_ + size_ - pos));
}

bool SlidingWindow::AtEnd(uint64_t pos) {
  if (pos < base_ + size_) return false;
  if (!eof_) Ensure(pos, 1);
  return eof_ && pos >= base_ + size_;
}

std::string ProjectedOutputPath(const std::string& input_path) {
  static constexpr std::string_view kXml = ".xml";
  if (input_path.size() > kXml.size() &&
      input_path.compare(input_path.size() - kXml.size(), kXml.size(),
                         kXml) == 0) {
    return input_path.substr(0, input_path.size() - kXml.size()) +
           ".proj.xml";
  }
  return input_path + ".proj.xml";
}

Result<std::string> ReadFileToString(const std::string& path) {
  SMPX_ASSIGN_OR_RETURN(std::unique_ptr<FileInputStream> in,
                        FileInputStream::Open(path));
  std::string out;
  char buf[1 << 16];
  for (;;) {
    SMPX_ASSIGN_OR_RETURN(size_t n, in->Read(buf, sizeof(buf)));
    if (n == 0) break;
    out.append(buf, n);
  }
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  // One Append of at least the buffer capacity writes straight through,
  // so a one-byte buffer skips the default 1 MiB allocation.
  SMPX_ASSIGN_OR_RETURN(std::unique_ptr<BufferedFileSink> sink,
                        BufferedFileSink::Open(path, /*buffer_capacity=*/1));
  SMPX_RETURN_IF_ERROR(sink->Append(data));
  return sink->Flush();
}

}  // namespace smpx
