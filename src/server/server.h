// The smpxd server: accept loops, per-connection request dispatch, and
// global memory admission control.
//
// Threading model: one blocking accept loop per listener (unix, tcp),
// one thread per live connection. A connection serves any number of
// sequential conversations (request -> data* -> trailer|error) and dies
// on the first protocol violation or socket error. All document and
// table state lives in the shared Cache; a connection thread only ever
// holds shared_ptr snapshots, so shutdown and eviction never race a
// running projection.
//
// Admission control: every request must reserve `per_request_bytes`
// from a global budget (`max_buffer_bytes`) before any work happens.
// When the budget is exhausted the server answers with an error frame
// (kResourceExhausted, retryable=1) and keeps the connection open -- the
// client backs off and resends. This bounds the daemon's working memory
// at budget + cache, independent of how many clients pile on.

#ifndef SMPX_SERVER_SERVER_H_
#define SMPX_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "server/cache.h"
#include "server/protocol.h"
#include "server/socket.h"

namespace smpx::server {

struct ServerOptions {
  /// Unix-domain socket path; empty disables the unix listener.
  std::string unix_path;
  /// Loopback TCP port; -1 disables, 0 picks an ephemeral port.
  int tcp_port = -1;
  /// Global admission budget across all in-flight requests.
  uint64_t max_buffer_bytes = 64u << 20;
  /// Bytes one request reserves from the budget (engine window + frame
  /// coalescing buffer + decode scratch, rounded up). Also the largest
  /// window a request may ask for: a larger explicit `window` is refused
  /// with kInvalidArgument before any work.
  uint64_t per_request_bytes = 4u << 20;
  /// Engine window capacity when the request leaves `window` at 0. Over
  /// an mmapped document the window lends the mapping instead of
  /// allocating this much; a session copies only what it holds when it
  /// suspends (a cursor request holds about one record). smpxd refuses a
  /// `--window` above `--request-buffer`.
  uint64_t default_window = 1u << 20;
  CacheOptions cache;
};

/// Counting semaphore over a byte budget; try-acquire only (admission
/// rejections must not block the connection thread).
class Admission {
 public:
  explicit Admission(uint64_t budget) : available_(budget) {}

  bool TryAcquire(uint64_t bytes);
  void Release(uint64_t bytes);
  uint64_t available() const { return available_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> available_;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts);
  ~Server();

  /// Binds the configured listeners and spawns the accept threads.
  Status Start();
  /// Unblocks the accept loops, closes the listeners, and joins every
  /// thread (live connections finish their current conversation's frame
  /// writes and then see closed sockets).
  void Stop();

  /// Actual TCP port after Start() (useful with tcp_port = 0).
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return opts_.unix_path; }

  Cache& cache() { return cache_; }
  const Admission& admission() const { return admission_; }

 private:
  void AcceptLoop(Fd* listener);
  void ServeConnection(Fd conn);
  /// One conversation; returns false when the connection should close.
  bool ServeOne(const Fd& conn);
  Status Dispatch(const Fd& conn, const Request& req);

  ServerOptions opts_;
  Cache cache_;
  Admission admission_;
  int tcp_port_ = -1;
  Fd unix_listener_;
  Fd tcp_listener_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> accept_threads_;
  // Connection threads run detached; Stop() shuts their sockets down to
  // unpark blocked reads and waits for the live count to drain, so no
  // thread outlives the Server it captured.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  size_t live_conns_ = 0;
  std::set<int> conn_fds_;
};

}  // namespace smpx::server

#endif  // SMPX_SERVER_SERVER_H_
