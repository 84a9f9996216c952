// Minimal blocking-socket transport for smpxd: unix-domain and loopback
// TCP listeners, client connects, full-frame reads/writes, and the
// OutputSink that streams projection bytes to a peer as bounded data
// frames. Blocking writes are the flow control: a slow client stalls its
// own connection's engine session (one thread, one window) instead of
// growing a buffer -- the daemon's memory stays flat no matter how slowly
// a projection is consumed.
//
// POSIX-only (like mmap support in common/io.cc); on other platforms
// every entry point returns Status::Unsupported.

#ifndef SMPX_SERVER_SOCKET_H_
#define SMPX_SERVER_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/io.h"
#include "common/result.h"
#include "common/status.h"
#include "server/protocol.h"

namespace smpx::server {

/// Owning file descriptor with move semantics; -1 when empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void Close();

 private:
  int fd_ = -1;
};

/// Binds and listens on a unix-domain socket at `path` (an existing
/// socket file is replaced -- the daemon owns its rendezvous path).
Result<Fd> ListenUnix(const std::string& path);

/// Binds and listens on loopback TCP `port` (0 = ephemeral); on success
/// `*bound_port` receives the actual port.
Result<Fd> ListenTcp(int port, int* bound_port);

/// Accepts one connection; blocks. Fails with kCancelled when the
/// listener fd was shut down from another thread.
Result<Fd> Accept(const Fd& listener);

/// Connects to "unix:PATH", "tcp:HOST:PORT", or a bare filesystem path
/// (treated as unix).
Result<Fd> Connect(const std::string& endpoint);

/// Unblocks a pending Accept from another thread (shutdown + close
/// race-free enough for our single-owner lifecycle).
void ShutdownListener(const Fd& listener);

/// Writes all of `data`; EINTR-safe. EPIPE comes back as kIoError.
Status WriteAll(const Fd& fd, std::string_view data);

/// Reads exactly `len` bytes. A clean EOF at offset 0 yields kNotFound
/// ("peer closed"); a mid-record EOF is kIoError.
Status ReadExact(const Fd& fd, char* buf, size_t len);

/// Reads one whole frame; enforces kMaxFrameBytes BEFORE allocating.
/// `*kind` receives the tag byte, `*payload` the rest of the frame.
Status ReadFrame(const Fd& fd, char* kind, std::string* payload);

/// Writes one `kind` frame with `payload`.
Status WriteFrame(const Fd& fd, char kind, std::string_view payload);

/// OutputSink that coalesces appends into data frames of at most
/// `frame_bytes` and writes them to the socket. First write error is
/// sticky (mirrors BufferedFileSink semantics) so an engine run aborts
/// promptly when the client goes away.
class FrameSink : public OutputSink {
 public:
  explicit FrameSink(const Fd* fd, size_t frame_bytes = kDataFrameBytes)
      : fd_(fd), cap_(frame_bytes > 0 ? frame_bytes : 1) {
    buf_.reserve(cap_);
  }

  Status Append(std::string_view data) override;
  /// Flushes the partial frame (if any); does NOT write a trailer.
  Status Flush();

 private:
  const Fd* fd_;
  size_t cap_;
  std::string buf_;
  Status error_;  // sticky
};

}  // namespace smpx::server

#endif  // SMPX_SERVER_SOCKET_H_
