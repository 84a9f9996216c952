// Unit tests for the composable sink layer: SpillSink budget edges (0, 1,
// exactly-at-budget, spill-then-replay, reuse after Clear), BufferedFileSink
// write coalescing and sticky short-write failures with idempotent Flush,
// OrderedCommitSink in-order/out-of-order commit, truncation, duplicate
// installs, and concurrent installs from a thread pool.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/strings.h"
#include "parallel/thread_pool.h"

namespace smpx {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- SpillSink ------------------------------------------------------------

TEST(SpillSinkTest, UnlimitedNeverSpills) {
  SpillSink sink;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sink.Append("0123456789").ok());
  }
  EXPECT_FALSE(sink.spilled());
  EXPECT_EQ(sink.bytes_written(), 1000u);
  EXPECT_EQ(sink.resident_bytes(), 1000u);
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str().size(), 1000u);
}

TEST(SpillSinkTest, ZeroBudgetSpillsFromTheFirstByte) {
  SpillSink sink(0);
  ASSERT_TRUE(sink.Append("x").ok());
  EXPECT_TRUE(sink.spilled());
  EXPECT_EQ(sink.resident_bytes(), 0u);
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str(), "x");
}

TEST(SpillSinkTest, OneByteBudgetHoldsExactlyOneByte) {
  SpillSink sink(1);
  ASSERT_TRUE(sink.Append("a").ok());
  EXPECT_FALSE(sink.spilled());  // exactly at budget: still in memory
  ASSERT_TRUE(sink.Append("b").ok());
  EXPECT_TRUE(sink.spilled());
  EXPECT_EQ(sink.resident_bytes(), 0u);
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str(), "ab");
}

TEST(SpillSinkTest, ExactlyAtBudgetStaysInMemory) {
  SpillSink sink(10);
  ASSERT_TRUE(sink.Append("01234").ok());
  ASSERT_TRUE(sink.Append("56789").ok());
  EXPECT_FALSE(sink.spilled());
  EXPECT_EQ(sink.resident_bytes(), 10u);
  // One more byte moves everything to disk.
  ASSERT_TRUE(sink.Append("!").ok());
  EXPECT_TRUE(sink.spilled());
  EXPECT_EQ(sink.resident_bytes(), 0u);
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str(), "0123456789!");
}

TEST(SpillSinkTest, SpillThenReplayPreservesOrderAndStaysAppendable) {
  SpillSink sink(8);
  std::string expected;
  for (int i = 0; i < 50; ++i) {
    std::string piece = "piece" + std::to_string(i) + ";";
    expected += piece;
    ASSERT_TRUE(sink.Append(piece).ok());
  }
  EXPECT_TRUE(sink.spilled());
  StringSink out1;
  ASSERT_TRUE(sink.CopyTo(&out1).ok());
  EXPECT_EQ(out1.str(), expected);
  // Replay is repeatable and appends continue at the end.
  ASSERT_TRUE(sink.Append("tail").ok());
  expected += "tail";
  StringSink out2;
  ASSERT_TRUE(sink.CopyTo(&out2).ok());
  EXPECT_EQ(out2.str(), expected);
  EXPECT_EQ(sink.bytes_written(), expected.size());
}

TEST(SpillSinkTest, ClearMakesTheSinkReusable) {
  SpillSink sink(4);
  ASSERT_TRUE(sink.Append("0123456789").ok());
  EXPECT_TRUE(sink.spilled());
  sink.Clear();
  EXPECT_FALSE(sink.spilled());
  EXPECT_EQ(sink.bytes_written(), 0u);
  ASSERT_TRUE(sink.Append("ab").ok());
  EXPECT_FALSE(sink.spilled());
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str(), "ab");
}

TEST(SpillSinkTest, ForceSpillParksResidentBytesOnDisk) {
  SpillSink sink(1 << 20);
  ASSERT_TRUE(sink.Append("hello").ok());
  EXPECT_FALSE(sink.spilled());
  ASSERT_TRUE(sink.ForceSpill().ok());
  EXPECT_TRUE(sink.spilled());
  EXPECT_EQ(sink.resident_bytes(), 0u);
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str(), "hello");

  // Unlimited sinks are deliberately memory-backed: ForceSpill is a no-op.
  SpillSink unlimited;
  ASSERT_TRUE(unlimited.Append("hello").ok());
  ASSERT_TRUE(unlimited.ForceSpill().ok());
  EXPECT_FALSE(unlimited.spilled());
}

// --- BufferedFileSink -----------------------------------------------------

TEST(BufferedFileSinkTest, CoalescesSmallAppendsAndFlushes) {
  std::string path = TempPath("buffered_sink_test.bin");
  std::string expected;
  {
    auto sink = BufferedFileSink::Open(path, /*buffer_capacity=*/64);
    ASSERT_TRUE(sink.ok());
    for (int i = 0; i < 100; ++i) {
      std::string piece = std::to_string(i) + ",";
      expected += piece;
      ASSERT_TRUE((*sink)->Append(piece).ok());
    }
    // A large append bypasses the buffer without reordering.
    std::string big(300, 'x');
    expected += big;
    ASSERT_TRUE((*sink)->Append(big).ok());
    expected += "end";
    ASSERT_TRUE((*sink)->Append("end").ok());
    EXPECT_EQ((*sink)->bytes_written(), expected.size());
    ASSERT_TRUE((*sink)->Flush().ok());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, expected);
  std::remove(path.c_str());
}

TEST(BufferedFileSinkTest, DestructorFlushesWithoutExplicitFlush) {
  std::string path = TempPath("buffered_sink_dtor.bin");
  {
    auto sink = BufferedFileSink::Open(path, 1 << 16);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->Append("pending bytes").ok());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "pending bytes");
  std::remove(path.c_str());
}

#ifdef __linux__
TEST(BufferedFileSinkTest, FailureIsStickyOnFullDevice) {
  // Two inputs: a wrapped handle with a tiny buffer, and a handle opened
  // by path with the default buffer. Each append is at least the buffer
  // capacity, so it bypasses the buffer and hits the device.
  std::FILE* f = std::fopen("/dev/full", "wb");
  if (f == nullptr) GTEST_SKIP() << "/dev/full unavailable";
  auto opened = BufferedFileSink::Open("/dev/full");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  struct Input {
    std::unique_ptr<BufferedFileSink> sink;
    size_t bytes;
  };
  std::vector<Input> inputs;
  inputs.push_back({BufferedFileSink::Wrap(f, /*buffer_capacity=*/16),
                    size_t{1} << 16});
  inputs.push_back({std::move(*opened), BufferedFileSink::kDefaultBuffer});
  for (Input& in : inputs) {
    SCOPED_TRACE(in.bytes);
    std::string big(in.bytes, 'z');
    Status s = in.sink->Append(big);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.message().find("short write"), std::string_view::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("of " + std::to_string(big.size()) + " bytes"),
              std::string_view::npos)
        << s.ToString();
    // Sticky and idempotent: the original cause, not a new flush error,
    // and no further writes attempted.
    EXPECT_EQ(in.sink->Flush(), s);
    EXPECT_EQ(in.sink->Flush(), s);
    EXPECT_EQ(in.sink->Append("more"), s);
  }
  inputs.clear();
  std::fclose(f);
}
#endif  // __linux__

// --- ParseByteSize --------------------------------------------------------

TEST(ParseByteSizeTest, AcceptsPlainAndSuffixedSizes) {
  EXPECT_EQ(*ParseByteSize("0"), 0u);
  EXPECT_EQ(*ParseByteSize("4096"), 4096u);
  EXPECT_EQ(*ParseByteSize("64K"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("64k"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("64KiB"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("64kb"), 64u << 10);
  EXPECT_EQ(*ParseByteSize("1M"), 1u << 20);
  EXPECT_EQ(*ParseByteSize("1MiB"), 1u << 20);
  EXPECT_EQ(*ParseByteSize("2G"), 2ull << 30);
  EXPECT_EQ(*ParseByteSize(" 8M "), 8u << 20);
}

TEST(ParseByteSizeTest, RejectsGarbageAndOverflow) {
  EXPECT_FALSE(ParseByteSize("").ok());
  EXPECT_FALSE(ParseByteSize("M").ok());
  EXPECT_FALSE(ParseByteSize("-1").ok());
  EXPECT_FALSE(ParseByteSize("12Q").ok());
  EXPECT_FALSE(ParseByteSize("1MiBs").ok());
  EXPECT_FALSE(ParseByteSize("99999999999999999999").ok());
  EXPECT_FALSE(ParseByteSize("99999999999999999G").ok());
}

// --- OrderedCommitSink ----------------------------------------------------

std::unique_ptr<SpillSink> Segment(const std::string& content,
                                   size_t budget = SpillSink::kUnlimited) {
  auto seg = std::make_unique<SpillSink>(budget);
  EXPECT_TRUE(seg->Append(content).ok());
  return seg;
}

TEST(OrderedCommitSinkTest, InOrderInstallsStreamImmediately) {
  StringSink down;
  OrderedCommitSink commit(&down, 3);
  ASSERT_TRUE(commit.Install(0, Segment("a")).ok());
  EXPECT_EQ(down.str(), "a");
  EXPECT_EQ(commit.frontier(), 1u);
  ASSERT_TRUE(commit.Install(1, Segment("b")).ok());
  EXPECT_EQ(down.str(), "ab");
  ASSERT_TRUE(commit.Install(2, Segment("c")).ok());
  EXPECT_EQ(down.str(), "abc");
  EXPECT_TRUE(commit.finished());
  EXPECT_EQ(commit.committed_bytes(), 3u);
}

TEST(OrderedCommitSinkTest, OutOfOrderCompletionCommitsInDocumentOrder) {
  StringSink down;
  OrderedCommitSink commit(&down, 4);
  ASSERT_TRUE(commit.Install(2, Segment("c", /*budget=*/4)).ok());
  ASSERT_TRUE(commit.Install(1, Segment("b", /*budget=*/4)).ok());
  EXPECT_EQ(down.str(), "");  // segment 0 gates everything
  EXPECT_EQ(commit.frontier(), 0u);
  ASSERT_TRUE(commit.Install(0, Segment("a", /*budget=*/4)).ok());
  EXPECT_EQ(down.str(), "abc");  // the parked run drains in one go
  EXPECT_EQ(commit.frontier(), 3u);
  ASSERT_TRUE(commit.Install(3, Segment("d", /*budget=*/4)).ok());
  EXPECT_EQ(down.str(), "abcd");
  EXPECT_TRUE(commit.finished());
}

TEST(OrderedCommitSinkTest, NullSegmentsAreEmpty) {
  StringSink down;
  OrderedCommitSink commit(&down, 2);
  ASSERT_TRUE(commit.Install(0, nullptr).ok());
  ASSERT_TRUE(commit.Install(1, Segment("x")).ok());
  EXPECT_EQ(down.str(), "x");
  EXPECT_TRUE(commit.finished());
}

TEST(OrderedCommitSinkTest, TruncateStopsTheFrontierAndDropsPending) {
  StringSink down;
  OrderedCommitSink commit(&down, 4);
  ASSERT_TRUE(commit.Install(2, Segment("c")).ok());
  ASSERT_TRUE(commit.Install(0, Segment("a")).ok());
  commit.Truncate(2);
  ASSERT_TRUE(commit.Install(1, Segment("b")).ok());
  EXPECT_EQ(down.str(), "ab");  // segment 2's content was dropped
  EXPECT_TRUE(commit.finished());
  // Installs past the truncation point are ignored.
  ASSERT_TRUE(commit.Install(3, Segment("d")).ok());
  EXPECT_EQ(down.str(), "ab");
  // Truncate keeps the lowest limit across calls.
  commit.Truncate(3);
  EXPECT_TRUE(commit.finished());
}

TEST(OrderedCommitSinkTest, DuplicateInstallIsAnError) {
  StringSink down;
  OrderedCommitSink commit(&down, 2);
  ASSERT_TRUE(commit.Install(0, Segment("a")).ok());
  Status s = commit.Install(0, Segment("again"));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(commit.status(), s);
}

TEST(OrderedCommitSinkTest, ParkedSegmentsWithBudgetsAreForceSpilled) {
  StringSink down;
  OrderedCommitSink commit(&down, 2);
  auto seg = Segment("parked content", /*budget=*/1 << 20);
  SpillSink* raw = seg.get();
  ASSERT_TRUE(commit.Install(1, std::move(seg)).ok());
  // Waiting ahead of the frontier must not cost memory.
  EXPECT_TRUE(raw->spilled());
  EXPECT_EQ(raw->resident_bytes(), 0u);
  ASSERT_TRUE(commit.Install(0, Segment("front ", 1 << 20)).ok());
  EXPECT_EQ(down.str(), "front parked content");
}

/// Downstream sink that accepts `limit` bytes, then fails every Append.
class FailingSink : public OutputSink {
 public:
  explicit FailingSink(size_t limit) : limit_(limit) {}
  Status Append(std::string_view data) override {
    if (bytes_written_ + data.size() > limit_) {
      return Status::IoError("downstream full");
    }
    ok_.append(data);
    bytes_written_ += data.size();
    return Status::Ok();
  }
  const std::string& str() const { return ok_; }

 private:
  size_t limit_;
  std::string ok_;
};

TEST(OrderedCommitSinkTest, CommitErrorStopsTheFrontierForGood) {
  // A failed replay must not be skipped over: later installs may not
  // stream past the hole, no matter how healthy the downstream looks.
  FailingSink down(4);
  OrderedCommitSink commit(&down, 3);
  ASSERT_TRUE(commit.Install(0, Segment("okay")).ok());
  EXPECT_EQ(down.str(), "okay");
  Status s = commit.Install(1, Segment("does not fit"));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(commit.frontier(), 1u);
  // The next segment is accepted but never committed.
  EXPECT_FALSE(commit.Install(2, Segment("later")).ok());
  EXPECT_EQ(down.str(), "okay");
  EXPECT_EQ(commit.frontier(), 1u);
  EXPECT_FALSE(commit.finished());
  EXPECT_EQ(commit.status(), s);
}

// --- SpillArena -----------------------------------------------------------

TEST(SpillArenaTest, ManySinksShareOneBackingFile) {
  SpillArena arena;
  EXPECT_EQ(arena.open_files(), 0);  // lazily opened
  std::vector<std::unique_ptr<SpillSink>> sinks;
  std::vector<std::string> expected(40);
  for (size_t i = 0; i < 40; ++i) {
    sinks.push_back(std::make_unique<SpillSink>(/*budget=*/4, &arena));
    for (int j = 0; j < 8; ++j) {
      std::string piece = "s" + std::to_string(i) + "p" + std::to_string(j);
      expected[i] += piece;
      ASSERT_TRUE(sinks[i]->Append(piece).ok());
    }
    EXPECT_TRUE(sinks[i]->spilled());
    EXPECT_EQ(sinks[i]->resident_bytes(), 0u);
  }
  EXPECT_EQ(arena.open_files(), 1);
  for (size_t i = 0; i < 40; ++i) {
    StringSink out;
    ASSERT_TRUE(sinks[i]->CopyTo(&out).ok());
    EXPECT_EQ(out.str(), expected[i]);
  }
}

TEST(SpillArenaTest, ReplayIsRepeatableAndAppendsContinueInOrder) {
  SpillArena arena;
  SpillSink sink(/*budget=*/8, &arena);
  std::string expected;
  for (int i = 0; i < 50; ++i) {
    std::string piece = "piece" + std::to_string(i) + ";";
    expected += piece;
    ASSERT_TRUE(sink.Append(piece).ok());
  }
  EXPECT_TRUE(sink.spilled());
  StringSink out1;
  ASSERT_TRUE(sink.CopyTo(&out1).ok());
  EXPECT_EQ(out1.str(), expected);
  ASSERT_TRUE(sink.Append("tail").ok());
  expected += "tail";
  StringSink out2;
  ASSERT_TRUE(sink.CopyTo(&out2).ok());
  EXPECT_EQ(out2.str(), expected);
  EXPECT_EQ(sink.bytes_written(), expected.size());
}

TEST(SpillArenaTest, ForceSpillParksIntoArenaAndClearReleases) {
  SpillArena arena;
  SpillSink sink(/*budget=*/1 << 20, &arena);
  ASSERT_TRUE(sink.Append("hello").ok());
  EXPECT_FALSE(sink.spilled());
  ASSERT_TRUE(sink.ForceSpill().ok());
  EXPECT_TRUE(sink.spilled());
  EXPECT_EQ(sink.resident_bytes(), 0u);
  StringSink out;
  ASSERT_TRUE(sink.CopyTo(&out).ok());
  EXPECT_EQ(out.str(), "hello");
  sink.Clear();
  EXPECT_FALSE(sink.spilled());
  // After the last extent is released the arena truncates its file but
  // keeps the fd for the next epoch.
  EXPECT_EQ(arena.open_files(), 1);
  ASSERT_TRUE(sink.Append("again-0123456789").ok());
  ASSERT_TRUE(sink.ForceSpill().ok());
  StringSink out2;
  ASSERT_TRUE(sink.CopyTo(&out2).ok());
  EXPECT_EQ(out2.str(), "again-0123456789");
}

TEST(SpillArenaTest, ConcurrentSpillsFromAPoolStayIsolated) {
  for (int round = 0; round < 10; ++round) {
    SpillArena arena;
    const size_t n = 16;
    std::vector<std::unique_ptr<SpillSink>> sinks;
    std::vector<std::string> expected(n);
    for (size_t i = 0; i < n; ++i) {
      sinks.push_back(std::make_unique<SpillSink>(/*budget=*/3, &arena));
    }
    parallel::ThreadPool pool(5);
    pool.RunAndWait(n, [&](size_t i) {
      for (int j = 0; j < 64; ++j) {
        std::string piece =
            "w" + std::to_string(i) + "." + std::to_string(j) + "|";
        expected[i] += piece;
        ASSERT_TRUE(sinks[i]->Append(piece).ok());
      }
    });
    EXPECT_EQ(arena.open_files(), 1);
    for (size_t i = 0; i < n; ++i) {
      StringSink out;
      ASSERT_TRUE(sinks[i]->CopyTo(&out).ok());
      EXPECT_EQ(out.str(), expected[i]);
    }
  }
}

TEST(OrderedCommitSinkTest, ParkedBudgetedSegmentsShareTheArenaFile) {
  SpillArena arena;
  StringSink down;
  const size_t n = 12;
  OrderedCommitSink commit(&down, n);
  std::string expected;
  std::vector<std::string> contents;
  for (size_t i = 0; i < n; ++i) {
    contents.push_back(std::string(64, static_cast<char>('a' + i)));
    expected += contents[i];
  }
  // Install out of order so every segment past the frontier parks
  // (ForceSpill) into the shared arena.
  for (size_t i = n; i-- > 1;) {
    auto seg = std::make_unique<SpillSink>(/*budget=*/16, &arena);
    ASSERT_TRUE(seg->Append(contents[i]).ok());
    ASSERT_TRUE(commit.Install(i, std::move(seg)).ok());
  }
  EXPECT_EQ(arena.open_files(), 1);
  auto head = std::make_unique<SpillSink>(/*budget=*/16, &arena);
  ASSERT_TRUE(head->Append(contents[0]).ok());
  ASSERT_TRUE(commit.Install(0, std::move(head)).ok());
  EXPECT_TRUE(commit.finished());
  EXPECT_EQ(down.str(), expected);
}

TEST(OrderedCommitSinkTest, ConcurrentInstallsFromAPool) {
  for (int round = 0; round < 20; ++round) {
    const size_t n = 17;
    std::string expected;
    std::vector<std::string> contents;
    for (size_t i = 0; i < n; ++i) {
      contents.push_back("seg" + std::to_string(i) + "|");
      expected += contents.back();
    }
    StringSink down;
    OrderedCommitSink commit(&down, n);
    parallel::ThreadPool pool(5);
    pool.RunAndWait(n, [&](size_t i) {
      commit.Install(i, Segment(contents[i], /*budget=*/8));
    });
    EXPECT_TRUE(commit.finished());
    EXPECT_TRUE(commit.status().ok());
    EXPECT_EQ(down.str(), expected);
  }
}

}  // namespace
}  // namespace smpx
