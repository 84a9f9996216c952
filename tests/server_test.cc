// smpxd server tests: concurrent clients differentially byte-identical
// to the offline CLI, cross-connection cursor-token resume, and the
// robustness matrix -- disconnect mid-stream, oversized and garbage
// frames, admission rejection under a tiny memory budget, and windows
// beyond the per-request budget. Most tests run the Server in-process
// (same code path as the smpxd binary); the process tests drive the real
// daemon (end to end via the ready line, and its start-up checks).

#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket.h"

namespace smpx::server {
namespace {

constexpr char kDtdText[] =
    "<!DOCTYPE set [ <!ELEMENT set (rec)*>"
    " <!ELEMENT rec (name, age)> <!ELEMENT name (#PCDATA)>"
    " <!ELEMENT age (#PCDATA)> ]>";
constexpr char kPaths[] = "/set/rec@ /set/rec/name#";
constexpr int kRecords = 120;

std::string TestDoc() {
  std::string doc = "<set>";
  for (int i = 0; i < kRecords; ++i) {
    doc += "<rec><name>person-" + std::to_string(i) + "</name><age>" +
           std::to_string(20 + i % 60) + "</age></rec>";
  }
  doc += "</set>";
  return doc;
}

core::Prefilter MustCompile() {
  auto dtd = dtd::Dtd::Parse(kDtdText);
  EXPECT_TRUE(dtd.ok());
  auto paths = paths::ProjectionPath::ParseList(kPaths);
  EXPECT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*paths));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

/// On-disk fixture shared by every test in the process: the document the
/// server serves, plus offline ground truth (full projection and a
/// granularity-1 boundary index for expected seek slices).
struct Fixture {
  std::string doc_path;
  std::string doc;
  std::string projected;  // full offline projection
  core::Prefilter pf;
  index::BoundaryIndex idx;

  Fixture() : pf(MustCompile()) {
    doc = TestDoc();
    doc_path = ::testing::TempDir() + "/server_test_doc.xml";
    EXPECT_TRUE(WriteStringToFile(doc_path, doc).ok());
    auto out = pf.RunOnBuffer(doc);
    EXPECT_TRUE(out.ok());
    projected = std::move(*out);
    index::BoundaryIndexOptions bopts;
    bopts.granularity_bytes = 1;
    auto built =
        index::BoundaryIndex::Build(pf.tables(), MemorySource(doc), bopts);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    idx = std::move(*built);
  }

  /// The offline engine's bytes for `count` records starting at ordinal
  /// `rec` (to the end when count == 0).
  std::string SeekSlice(uint64_t rec, size_t record_count) const {
    auto cur = index::Cursor::OpenAtRecord(idx, pf.tables(), doc, rec);
    EXPECT_TRUE(cur.ok()) << cur.status().ToString();
    StringSink sink;
    if (record_count > 0) {
      auto n = cur->Next(record_count, &sink);
      EXPECT_TRUE(n.ok());
    } else {
      EXPECT_TRUE(cur->Drain(&sink).ok());
    }
    return sink.str();
  }
};

const Fixture& SharedFixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

Request BaseRequest(const Fixture& f) {
  Request req;
  req.dtd_text = kDtdText;
  req.paths_text = kPaths;
  req.doc_path = f.doc_path;
  return req;
}

std::unique_ptr<Server> StartServer(uint64_t max_buffer = 64u << 20,
                                    uint64_t per_request = 1u << 20) {
  static std::atomic<int> counter{0};
  ServerOptions opts;
  opts.unix_path = ::testing::TempDir() + "/smpxd_test_" +
                   std::to_string(counter++) + ".sock";
  opts.max_buffer_bytes = max_buffer;
  opts.per_request_bytes = per_request;
  opts.cache.index_granularity = 1;
  auto srv = std::make_unique<Server>(opts);
  EXPECT_TRUE(srv->Start().ok());
  return srv;
}

TEST(AdmissionTest, AcquireReleaseArithmetic) {
  Admission a(10);
  EXPECT_TRUE(a.TryAcquire(4));
  EXPECT_TRUE(a.TryAcquire(6));
  EXPECT_EQ(a.available(), 0u);
  EXPECT_FALSE(a.TryAcquire(1));
  a.Release(6);
  EXPECT_TRUE(a.TryAcquire(5));
  EXPECT_FALSE(a.TryAcquire(2));
}

TEST(ServerTest, ProjectMatchesOfflineEngine) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Request req = BaseRequest(f);
  StringSink sink;
  auto t = client->Call(req, &sink);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(sink.str(), f.projected);
  EXPECT_EQ(t->emitted_bytes, f.projected.size());
  EXPECT_TRUE(t->at_end);
  EXPECT_TRUE(t->token.empty());
}

TEST(ServerTest, EightConcurrentClientsAreByteIdentical) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();
  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("unix:" + srv->unix_path());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        // Mixed workload per connection: a full projection, then seeks
        // at client-specific ordinals.
        Request req = BaseRequest(f);
        StringSink sink;
        if (round % 3 == 0) {
          auto t = client->Call(req, &sink);
          if (!t.ok() || sink.str() != f.projected) {
            ++failures;
            return;
          }
        } else {
          uint64_t rec =
              static_cast<uint64_t>((c * 17 + round * 31) % kRecords);
          req.op = Op::kSeek;
          req.by_record = true;
          req.target = rec;
          req.count = 3;
          auto t = client->Call(req, &sink);
          if (!t.ok() || sink.str() != f.SeekSlice(rec, 3)) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServerTest, TokenResumeAcrossTwoConnections) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();

  // Connection 1: open at record 10, take 4 records, pocket the token.
  auto c1 = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(c1.ok());
  Request seek = BaseRequest(f);
  seek.op = Op::kSeek;
  seek.by_record = true;
  seek.target = 10;
  seek.count = 4;
  StringSink first;
  auto t1 = c1->Call(seek, &first);
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  EXPECT_EQ(first.str(), f.SeekSlice(10, 4));
  ASSERT_FALSE(t1->at_end);
  ASSERT_FALSE(t1->token.empty());
  EXPECT_EQ(t1->record_position, 14u);

  // Connection 2 (a different socket, as from another load-balanced
  // client): restore the token and drain; the concatenation must be the
  // byte-exact suffix from record 10.
  auto c2 = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(c2.ok());
  Request resume = BaseRequest(f);
  resume.op = Op::kResume;
  resume.token = t1->token;
  StringSink rest;
  auto t2 = c2->Call(resume, &rest);
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_TRUE(t2->at_end);
  EXPECT_EQ(first.str() + rest.str(),
            f.SeekSlice(10, 0));
}

TEST(ServerTest, TamperedTokenFailsClosed) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();
  auto c = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(c.ok());
  Request seek = BaseRequest(f);
  seek.op = Op::kSeek;
  seek.by_record = true;
  seek.target = 5;
  seek.count = 1;
  auto t = c->Call(seek, nullptr);
  ASSERT_TRUE(t.ok());
  ASSERT_FALSE(t->token.empty());
  std::string bad = t->token;
  bad[bad.size() / 2] ^= 0x40;
  Request resume = BaseRequest(f);
  resume.op = Op::kResume;
  resume.token = bad;
  auto r = c->Call(resume, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(c->last_error_retryable());
}

TEST(ServerTest, DisconnectMidStreamLeavesServerServing) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();
  {
    // Raw connection: send a valid project request, read ONE frame, then
    // slam the socket shut while the server is still streaming.
    auto fd = Connect("unix:" + srv->unix_path());
    ASSERT_TRUE(fd.ok());
    Request req = BaseRequest(f);
    ASSERT_TRUE(WriteFrame(*fd, kFrameRequest, req.Encode()).ok());
    char kind = 0;
    std::string payload;
    ASSERT_TRUE(ReadFrame(*fd, &kind, &payload).ok());
    fd->Close();
  }
  // The server must shrug it off and serve the next client in full.
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok());
  StringSink sink;
  auto t = client->Call(BaseRequest(f), &sink);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(sink.str(), f.projected);
}

TEST(ServerTest, OversizedFrameIsRejectedBeforeAllocation) {
  auto srv = StartServer();
  auto fd = Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(fd.ok());
  // Length prefix claims ~4 GiB; the server must refuse without reading
  // (or allocating) a body.
  std::string hdr = {'\xff', '\xff', '\xff', '\xff'};
  ASSERT_TRUE(WriteAll(*fd, hdr).ok());
  char kind = 0;
  std::string payload;
  Status s = ReadFrame(*fd, &kind, &payload);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(kind, kFrameError);
  auto e = ErrorFrame::Decode(payload);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->code, StatusCode::kParseError);
  EXPECT_FALSE(e->retryable);
  // ... and the connection is closed afterwards.
  char buf;
  EXPECT_EQ(ReadExact(*fd, &buf, 1).code(), StatusCode::kNotFound);
}

TEST(ServerTest, GarbageFramesAreRejected) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();
  {
    // Wrong frame kind.
    auto fd = Connect("unix:" + srv->unix_path());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(*fd, 'X', "junk").ok());
    char kind = 0;
    std::string payload;
    ASSERT_TRUE(ReadFrame(*fd, &kind, &payload).ok());
    EXPECT_EQ(kind, kFrameError);
  }
  {
    // Right kind, undecodable payload.
    auto fd = Connect("unix:" + srv->unix_path());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(WriteFrame(*fd, kFrameRequest, "\x01garbage").ok());
    char kind = 0;
    std::string payload;
    ASSERT_TRUE(ReadFrame(*fd, &kind, &payload).ok());
    ASSERT_EQ(kind, kFrameError);
    auto e = ErrorFrame::Decode(payload);
    ASSERT_TRUE(e.ok());
    EXPECT_FALSE(e->retryable);
  }
  // Server still healthy.
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok());
  auto t = client->Call(BaseRequest(f), nullptr);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
}

TEST(ServerTest, AdmissionRejectsUnderTinyBudgetAndKeepsConnectionOpen) {
  const Fixture& f = SharedFixture();
  // Budget smaller than one request's reservation: every request is
  // rejected with the retryable admission error, but the CONNECTION
  // survives -- back off and resend is the contract.
  auto srv = StartServer(/*max_buffer=*/1024, /*per_request=*/4096);
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto t = client->Call(BaseRequest(f), nullptr);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(client->last_error_retryable());
  }
  EXPECT_EQ(srv->admission().available(), 1024u);
}

TEST(ServerTest, BudgetDrainsAndRefillsAcrossRequests) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer(/*max_buffer=*/8192, /*per_request=*/4096);
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok());
  // The reservation is released just AFTER the trailer is written, so the
  // client can observe the pre-release value briefly; poll it back.
  auto refilled = [&](uint64_t want) {
    for (int spin = 0; spin < 1000; ++spin) {
      if (srv->admission().available() == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  // Sequential requests each reserve and release; the budget must come
  // back every time (no leak on either the success or the error path).
  for (int i = 0; i < 4; ++i) {
    StringSink sink;
    auto t = client->Call(BaseRequest(f), &sink);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(sink.str(), f.projected);
    EXPECT_TRUE(refilled(8192u));
  }
  Request missing = BaseRequest(f);
  missing.doc_path = f.doc_path + ".does-not-exist";
  auto bad = client->Call(missing, nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(client->last_error_retryable());
  EXPECT_TRUE(refilled(8192u));
}

TEST(ServerTest, WindowBeyondRequestBudgetIsRefusedAndConnectionSurvives) {
  // A client-chosen window is engine memory the admission reservation
  // must cover. A larger one is refused with a non-retryable error before
  // any engine work -- a 2^62 window once aborted the whole daemon with
  // std::bad_alloc -- and the connection keeps serving.
  const Fixture& f = SharedFixture();
  const uint64_t per_request = 1u << 20;
  auto srv = StartServer(/*max_buffer=*/64u << 20, per_request);
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok());
  Request seek = BaseRequest(f);
  seek.op = Op::kSeek;
  seek.by_record = true;
  seek.target = 7;
  seek.count = 1;
  for (uint64_t window : {uint64_t{1} << 62, per_request + 1}) {
    for (Op op : {Op::kSeek, Op::kProject}) {
      SCOPED_TRACE(testing::Message() << "window=" << window
                                      << " op=" << static_cast<int>(op));
      Request bad = seek;
      bad.op = op;
      bad.window = window;
      StringSink sink;
      auto t = client->Call(bad, &sink);
      ASSERT_FALSE(t.ok());
      EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument)
          << t.status().ToString();
      EXPECT_FALSE(client->last_error_retryable());
      EXPECT_TRUE(sink.str().empty());
    }
  }
  // A window of exactly the budget is served on the same connection.
  seek.window = per_request;
  StringSink sink;
  auto t = client->Call(seek, &sink);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(sink.str(), f.SeekSlice(7, 1));
  EXPECT_FALSE(t->token.empty());
}

TEST(ServerTest, TcpListenerServesTheSameBytes) {
  const Fixture& f = SharedFixture();
  ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.cache.index_granularity = 1;
  Server srv(opts);
  ASSERT_TRUE(srv.Start().ok());
  ASSERT_GT(srv.tcp_port(), 0);
  auto client =
      Client::Connect("tcp:127.0.0.1:" + std::to_string(srv.tcp_port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  StringSink sink;
  auto t = client->Call(BaseRequest(f), &sink);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(sink.str(), f.projected);
  srv.Stop();
}

TEST(ServerTest, StaleIndexIsRebuiltWhenTheDocumentChanges) {
  const Fixture& f = SharedFixture();
  auto srv = StartServer();
  std::string path = ::testing::TempDir() + "/server_test_mutating.xml";
  ASSERT_TRUE(WriteStringToFile(path, f.doc).ok());
  auto client = Client::Connect("unix:" + srv->unix_path());
  ASSERT_TRUE(client.ok());
  Request req = BaseRequest(f);
  req.doc_path = path;
  StringSink s1;
  ASSERT_TRUE(client->Call(req, &s1).ok());
  EXPECT_EQ(s1.str(), f.projected);

  // Rewrite the document (different record count => different size);
  // the cache must notice and serve the NEW bytes, not yesterday's.
  std::string doc2 = "<set><rec><name>only</name><age>1</age></rec></set>";
  ASSERT_TRUE(WriteStringToFile(path, doc2).ok());
  auto expected2 = f.pf.RunOnBuffer(doc2);
  ASSERT_TRUE(expected2.ok());
  StringSink s2;
  auto t2 = client->Call(req, &s2);
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ(s2.str(), *expected2);
  std::remove(path.c_str());
}

#if defined(SMPXD_PATH) && defined(SMPX_CLI_PATH)

/// End-to-end through the real binaries: a daemon process serves a
/// projection to the real CLI in --connect mode, differentially compared
/// against the same CLI offline.
TEST(SmpxdProcessTest, CliConnectMatchesOfflineCli) {
  const Fixture& f = SharedFixture();
  const std::string dir = ::testing::TempDir();
  const std::string sock = dir + "/smpxd_e2e.sock";
  const std::string dtd_path = dir + "/smpxd_e2e.dtd";
  const std::string ready = dir + "/smpxd_e2e_ready.txt";
  const std::string pidf = dir + "/smpxd_e2e_pid.txt";
  ASSERT_TRUE(WriteStringToFile(dtd_path, kDtdText).ok());

  std::string start = std::string("\"") + SMPXD_PATH + "\" --socket \"" +
                      sock + "\" > \"" + ready + "\" & echo $! > \"" + pidf +
                      "\"";
  ASSERT_EQ(std::system(start.c_str()), 0);
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    auto line = ReadFileToString(ready);
    up = line.ok() && line->find("smpxd ready") != std::string::npos;
    if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(up) << "daemon never printed the ready line";

  const std::string offline = dir + "/smpxd_e2e_offline.xml";
  const std::string viasrv = dir + "/smpxd_e2e_server.xml";
  std::string base = std::string("\"") + SMPX_CLI_PATH + "\" --dtd \"" +
                     dtd_path + "\" --paths \"" + kPaths + "\" ";
  ASSERT_EQ(std::system(
                (base + "\"" + f.doc_path + "\" \"" + offline + "\"").c_str()),
            0);
  ASSERT_EQ(std::system((base + "--connect \"unix:" + sock + "\" \"" +
                         f.doc_path + "\" \"" + viasrv + "\"")
                            .c_str()),
            0);
  auto a = ReadFileToString(offline);
  auto b = ReadFileToString(viasrv);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  std::system(("kill $(cat \"" + pidf + "\") 2>/dev/null").c_str());
  for (const auto& p : {sock, ready, pidf, offline, viasrv, dtd_path}) {
    std::remove(p.c_str());
  }
}

TEST(SmpxdProcessTest, RefusesWindowLargerThanRequestBuffer) {
  // The admission reservation must cover the default window, so the daemon
  // refuses to start otherwise (exit 2). `timeout` turns a daemon that
  // starts anyway into a failure instead of a hang.
  const std::string sock = ::testing::TempDir() + "/smpxd_window.sock";
  const std::string cmd = std::string("timeout 10 \"") + SMPXD_PATH +
                          "\" --socket \"" + sock +
                          "\" --request-buffer 1M --window 2M 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  std::remove(sock.c_str());
}

#endif  // SMPXD_PATH && SMPX_CLI_PATH

}  // namespace
}  // namespace smpx::server
