#include "server/server.h"

#if defined(__unix__) || defined(__APPLE__)
#define SMPX_SERVER_POSIX 1
#include <sys/socket.h>
#endif

#include <utility>

#include "core/engine.h"
#include "index/cursor.h"

namespace smpx::server {

bool Admission::TryAcquire(uint64_t bytes) {
  uint64_t cur = available_.load(std::memory_order_relaxed);
  while (cur >= bytes) {
    if (available_.compare_exchange_weak(cur, cur - bytes,
                                         std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void Admission::Release(uint64_t bytes) {
  available_.fetch_add(bytes, std::memory_order_acq_rel);
}

Server::Server(const ServerOptions& opts)
    : opts_(opts), cache_(opts.cache), admission_(opts.max_buffer_bytes) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (opts_.unix_path.empty() && opts_.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (!opts_.unix_path.empty()) {
    auto fd = ListenUnix(opts_.unix_path);
    if (!fd.ok()) return fd.status();
    unix_listener_ = std::move(*fd);
  }
  if (opts_.tcp_port >= 0) {
    auto fd = ListenTcp(opts_.tcp_port, &tcp_port_);
    if (!fd.ok()) return fd.status();
    tcp_listener_ = std::move(*fd);
  }
  if (unix_listener_.valid()) {
    accept_threads_.emplace_back([this] { AcceptLoop(&unix_listener_); });
  }
  if (tcp_listener_.valid()) {
    accept_threads_.emplace_back([this] { AcceptLoop(&tcp_listener_); });
  }
  return Status::Ok();
}

void Server::Stop() {
  stopping_.store(true);
  ShutdownListener(unix_listener_);
  ShutdownListener(tcp_listener_);
  for (auto& t : accept_threads_) {
    if (t.joinable()) t.join();
  }
  accept_threads_.clear();
  unix_listener_.Close();
  tcp_listener_.Close();
  std::unique_lock<std::mutex> lock(conn_mu_);
#if SMPX_SERVER_POSIX
  for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
#endif
  conn_cv_.wait(lock, [this] { return live_conns_ == 0; });
}

void Server::AcceptLoop(Fd* listener) {
  for (;;) {
    auto conn = Accept(*listener);
    if (!conn.ok()) return;  // shutdown or fatal listener error
    if (stopping_.load(std::memory_order_relaxed)) return;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++live_conns_;
      conn_fds_.insert(conn->get());
    }
    std::thread([this, c = std::move(*conn)]() mutable {
      ServeConnection(std::move(c));
    }).detach();
  }
}

void Server::ServeConnection(Fd conn) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!ServeOne(conn)) break;
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(conn.get());
  conn.Close();
  --live_conns_;
  conn_cv_.notify_all();
}

bool Server::ServeOne(const Fd& conn) {
  char kind = 0;
  std::string payload;
  Status s = ReadFrame(conn, &kind, &payload);
  if (!s.ok()) {
    if (s.code() == StatusCode::kParseError) {
      // Oversized or malformed framing: tell the peer why, then close --
      // the stream is unsynchronized and nothing after it can be trusted.
      ErrorFrame e{s.code(), std::string(s.message()), false};
      (void)WriteFrame(conn, kFrameError, e.Encode());
    }
    return false;  // peer closed, read error, or framing violation
  }
  if (kind != kFrameRequest) {
    ErrorFrame e{StatusCode::kParseError,
                 "expected a request frame, got '" + std::string(1, kind) + "'",
                 false};
    (void)WriteFrame(conn, kFrameError, e.Encode());
    return false;
  }
  auto req = Request::Decode(payload);
  if (!req.ok()) {
    ErrorFrame e{req.status().code(), std::string(req.status().message()),
                 false};
    (void)WriteFrame(conn, kFrameError, e.Encode());
    return false;
  }

  if (req->window > opts_.per_request_bytes) {
    // An explicit window is engine memory the admission reservation must
    // cover; refuse a larger one before any work. The request is at fault,
    // not the stream, so the connection stays open.
    ErrorFrame e{StatusCode::kInvalidArgument,
                 "window of " + std::to_string(req->window) +
                     " bytes exceeds the per-request budget of " +
                     std::to_string(opts_.per_request_bytes),
                 false};
    return WriteFrame(conn, kFrameError, e.Encode()).ok();
  }
  if (!admission_.TryAcquire(opts_.per_request_bytes)) {
    // The retryable contract: nothing is wrong with the request, the
    // global buffer budget is momentarily full. Connection stays open.
    ErrorFrame e{StatusCode::kResourceExhausted,
                 "server memory budget exhausted; retry", true};
    return WriteFrame(conn, kFrameError, e.Encode()).ok();
  }
  Status d = Dispatch(conn, *req);
  admission_.Release(opts_.per_request_bytes);
  if (!d.ok()) {
    ErrorFrame e{d.code(), std::string(d.message()), false};
    return WriteFrame(conn, kFrameError, e.Encode()).ok();
  }
  return true;
}

Status Server::Dispatch(const Fd& conn, const Request& req) {
  auto pf = cache_.GetTables(req.dtd_text, req.paths_text);
  if (!pf.ok()) return pf.status();
  auto doc = cache_.GetIndexedDoc(**pf, req.doc_path);
  if (!doc.ok()) return doc.status();

  core::EngineOptions eopts;
  eopts.window_capacity = static_cast<size_t>(
      req.window > 0 ? req.window : opts_.default_window);

  FrameSink sink(&conn);
  Trailer t;

  if (req.op == Op::kProject) {
    core::RunStats stats;
    core::PrefilterSession session((*pf)->tables(), &sink, &stats, eopts);
    Status s = session.Finish((*doc)->doc());
    if (s.ok()) s = sink.Flush();
    if (!s.ok()) return s;
    t.emitted_bytes = sink.bytes_written();
    t.position = (*doc)->doc().size();
    t.out_position = 0;
    t.at_end = true;
    return WriteFrame(conn, kFrameTrailer, t.Encode());
  }

  // kSeek / kResume: cursor ops over the cached index. The cache verified
  // index <-> (document, tables) compatibility when it built the entry,
  // so skip the per-request full-document digest; tokens still carry
  // their own fail-closed digests inside Restore.
  index::CursorOptions copts;
  copts.engine = eopts;
  copts.verify_document = false;
  auto cur =
      req.op == Op::kSeek
          ? (req.by_record
                 ? index::Cursor::OpenAtRecord((*doc)->index, (*pf)->tables(),
                                               (*doc)->doc(), req.target,
                                               copts)
                 : index::Cursor::OpenAt((*doc)->index, (*pf)->tables(),
                                         (*doc)->doc(), req.target, copts))
          : index::Cursor::Restore((*doc)->index, (*pf)->tables(),
                                   (*doc)->doc(), req.token, copts);
  if (!cur.ok()) return cur.status();

  if (req.count > 0) {
    auto n = cur->Next(static_cast<size_t>(req.count), &sink);
    if (!n.ok()) return n.status();
    t.records = *n;
  } else {
    Status s = cur->Drain(&sink);
    if (!s.ok()) return s;
  }
  Status s = sink.Flush();
  if (!s.ok()) return s;
  t.emitted_bytes = sink.bytes_written();
  t.position = cur->position();
  t.out_position = cur->output_position();
  t.record_position = cur->record_position();
  t.at_end = cur->at_end();
  if (!cur->at_end()) t.token = cur->SaveToken();
  return WriteFrame(conn, kFrameTrailer, t.Encode());
}

}  // namespace smpx::server
