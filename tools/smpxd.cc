// smpxd: the long-lived projection daemon. Preloads compiled tables and
// boundary indexes into a keyed LRU cache and serves project / seek /
// resume requests over unix-domain and loopback TCP sockets (see
// server/protocol.h for the frame format and server/server.h for the
// threading and admission model).
//
//   smpxd --socket /tmp/smpx.sock [--port 7070] [--max-buffer 64M]
//         [--request-buffer 4M] [--window 1M] [--cache 16]
//         [--index-granularity 1]
//
// A document's boundary index is built on its first request, in one serial
// streaming pass over the mapped file (--index-granularity sets the entry
// spacing; 1 = every top-level record).
//
// Prints one "smpxd ready ..." line on stdout once the listeners are
// bound (test and bench harnesses wait for it), then runs until SIGINT
// or SIGTERM.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/io.h"
#include "common/strings.h"
#include "server/server.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--socket PATH] [--port N] [--max-buffer SIZE]\n"
      "          [--request-buffer SIZE] [--window SIZE] [--cache N]\n"
      "          [--index-granularity SIZE]\n"
      "At least one of --socket / --port is required; --port 0 picks an\n"
      "ephemeral port (printed on the ready line). A document's boundary\n"
      "index is built on its first request, in one serial pass over the\n"
      "mapped file, with one entry per --index-granularity bytes (default\n"
      "1: every top-level record).\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  smpx::server::ServerOptions opts;
  opts.cache.index_granularity = 1;

  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_size = [&](uint64_t* out) -> bool {
      const char* v = next();
      if (v == nullptr) return false;
      auto parsed = smpx::ParseByteSize(v);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(),
                     parsed.status().ToString().c_str());
        return false;
      }
      *out = *parsed;
      return true;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opts.unix_path = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opts.tcp_port = std::atoi(v);
      have_port = true;
    } else if (arg == "--max-buffer") {
      if (!next_size(&opts.max_buffer_bytes)) return Usage(argv[0]);
    } else if (arg == "--request-buffer") {
      if (!next_size(&opts.per_request_bytes)) return Usage(argv[0]);
    } else if (arg == "--window") {
      if (!next_size(&opts.default_window)) return Usage(argv[0]);
    } else if (arg == "--cache") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      opts.cache.max_tables = opts.cache.max_indexes =
          static_cast<size_t>(std::atoi(v));
    } else if (arg == "--index-granularity") {
      uint64_t g = 1;
      if (!next_size(&g)) return Usage(argv[0]);
      opts.cache.index_granularity = g;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (opts.unix_path.empty() && !have_port) return Usage(argv[0]);
  if (!have_port) opts.tcp_port = -1;
  if (opts.per_request_bytes > opts.max_buffer_bytes) {
    std::fprintf(stderr,
                 "--request-buffer exceeds --max-buffer: no request could "
                 "ever be admitted\n");
    return 2;
  }
  if (opts.default_window > opts.per_request_bytes) {
    std::fprintf(stderr,
                 "--window exceeds --request-buffer: the admission "
                 "reservation would not cover a request's window\n");
    return 2;
  }

  // Block the shutdown signals before any thread exists so the accept and
  // connection threads inherit the mask; main() alone takes delivery.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  smpx::server::Server server(opts);
  smpx::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "smpxd: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("smpxd ready unix=%s tcp=%d max-buffer=%llu request-buffer=%llu\n",
              server.unix_path().empty() ? "-" : server.unix_path().c_str(),
              server.tcp_port(),
              static_cast<unsigned long long>(opts.max_buffer_bytes),
              static_cast<unsigned long long>(opts.per_request_bytes));
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "smpxd: signal %d, shutting down\n", sig);
  server.Stop();
  return 0;
}
