// Tests for the common substrate: Status/Result, string helpers, streams,
// and the sliding window (including eviction callbacks and growth), over
// streams that lend their bytes and streams that can only copy them.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/io.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace smpx {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token at offset 12");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token at offset 12");
  EXPECT_EQ(s.ToString(), "ParseError: bad token at offset 12");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kNotFound);
  EXPECT_EQ(t.message(), "x");
}

Status FailingHelper() { return Status::IoError("disk on fire"); }

Status Propagates() {
  SMPX_RETURN_IF_ERROR(FailingHelper());
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(Propagates().code(), StatusCode::kIoError);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  SMPX_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("<description", "<desc"));
  EXPECT_FALSE(StartsWith("<d", "<desc"));
  EXPECT_TRUE(EndsWith("foo.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, Split) {
  auto parts = Split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, NameCharClasses) {
  EXPECT_TRUE(IsNameStartChar('a'));
  EXPECT_TRUE(IsNameStartChar('_'));
  EXPECT_FALSE(IsNameStartChar('1'));
  EXPECT_TRUE(IsNameChar('1'));
  EXPECT_TRUE(IsNameChar('-'));
  EXPECT_FALSE(IsNameChar('>'));
  EXPECT_FALSE(IsNameChar('/'));
  EXPECT_FALSE(IsNameChar(' '));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00B");
  EXPECT_EQ(HumanBytes(2.5 * 1024 * 1024), "2.50MB");
}

TEST(MemoryInputStreamTest, ReadsInChunks) {
  MemoryInputStream in("hello world");
  char buf[128];  // Read fills up to `len` bytes: the buffer must hold them
  auto r = in.Read(buf, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4u);
  EXPECT_EQ(std::string(buf, 4), "hell");
  r = in.Read(buf, 100);
  EXPECT_EQ(*r, 7u);
  EXPECT_EQ(std::string(buf, 7), "o world");
  r = in.Read(buf, 4);
  EXPECT_EQ(*r, 0u) << "EOF reached";
}

TEST(FileRoundTripTest, WriteThenRead) {
  std::string path = testing::TempDir() + "/smpx_io_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "round trip \0 data").ok());
  auto r = ReadFileToString(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "round trip \0 data");
  std::remove(path.c_str());
}

TEST(FileRoundTripTest, MissingFileIsIoError) {
  auto r = ReadFileToString("/nonexistent/smpx/file.xml");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

/// A stream over caller memory that implements only Read, so a window over
/// it copies every byte into owned storage.
class CopyOnlyStream : public InputStream {
 public:
  explicit CopyOnlyStream(std::string_view data) : in_(data) {}
  Result<size_t> Read(char* buf, size_t len) override {
    return in_.Read(buf, len);
  }

 private:
  MemoryInputStream in_;
};

/// Serves `data` from separately allocated pieces of `piece` bytes, never
/// crossing a piece in one call: lends are then discontiguous in memory at
/// every piece boundary. With `lend` false it only copies.
class PiecewiseStream : public InputStream {
 public:
  PiecewiseStream(std::string_view data, size_t piece, bool lend)
      : lend_(lend) {
    for (size_t i = 0; i < data.size(); i += piece) {
      pieces_.emplace_back(data.substr(i, piece));
    }
  }
  Result<size_t> Read(char* buf, size_t len) override {
    std::string_view v = Next(len);
    std::copy(v.begin(), v.end(), buf);
    return v.size();
  }
  std::optional<std::string_view> Lend(size_t len) override {
    if (!lend_) return std::nullopt;
    return Next(len);
  }

 private:
  std::string_view Next(size_t len) {
    if (at_ == pieces_.size()) return {};
    std::string_view v = std::string_view(pieces_[at_]).substr(off_, len);
    off_ += v.size();
    if (off_ == pieces_[at_].size()) {
      ++at_;
      off_ = 0;
    }
    return v;
  }

  bool lend_;
  std::vector<std::string> pieces_;
  size_t at_ = 0;
  size_t off_ = 0;
};

/// Every SlidingWindowTest runs over a stream that lends its bytes in
/// place and over one that can only copy them: the window's results and
/// eviction callbacks must not depend on where the bytes live.
enum class Storage { kLend, kCopy };

class SlidingWindowTest : public testing::TestWithParam<Storage> {
 protected:
  std::unique_ptr<InputStream> Stream(std::string_view data) const {
    if (GetParam() == Storage::kLend) {
      return std::make_unique<MemoryInputStream>(data);
    }
    return std::make_unique<CopyOnlyStream>(data);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Storage, SlidingWindowTest,
    testing::Values(Storage::kLend, Storage::kCopy),
    [](const testing::TestParamInfo<Storage>& info) {
      return info.param == Storage::kLend ? "Lend" : "Copy";
    });

TEST_P(SlidingWindowTest, ReadsWholeStreamThroughSmallWindow) {
  std::string data(1000, '\0');
  std::iota(data.begin(), data.end(), 0);
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);
  for (uint64_t pos = 0; pos < data.size(); ++pos) {
    win.set_lock(pos);
    ASSERT_EQ(win.Ensure(pos, 1), 1u) << pos;
    EXPECT_EQ(win.At(pos), data[static_cast<size_t>(pos)]);
  }
  EXPECT_TRUE(win.AtEnd(data.size()));
  EXPECT_FALSE(win.AtEnd(0));
}

TEST_P(SlidingWindowTest, EvictionSeesEveryByteInOrder) {
  std::string data;
  for (int i = 0; i < 500; ++i) data += static_cast<char>('a' + i % 26);
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);
  std::string evicted;
  uint64_t expected_next = 0;
  win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
    EXPECT_EQ(begin, expected_next);
    expected_next = begin + bytes.size();
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos < data.size(); pos += 10) {
    win.set_lock(pos);
    win.Ensure(pos, 10);
  }
  win.set_lock(data.size());
  win.Ensure(data.size(), 1);
  EXPECT_EQ(evicted, data);
}

TEST_P(SlidingWindowTest, GrowsWhenLockedSpanExceedsCapacity) {
  std::string data(4096, 'q');
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);
  win.set_lock(0);  // nothing may be evicted
  ASSERT_EQ(win.Ensure(0, 2000), 2000u);
  EXPECT_GE(win.capacity(), 2000u);
  EXPECT_GE(win.max_capacity_used(), 2000u);
  std::string_view v = win.View(0, 2000);
  EXPECT_EQ(v.substr(0, 5), "qqqqq");
}

TEST_P(SlidingWindowTest, ViewAcrossRefillKeepsAbsolutePositions) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += std::to_string(i % 10);
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);
  win.set_lock(250);
  std::string_view v = win.View(250, 20);
  ASSERT_GE(v.size(), 20u);
  EXPECT_EQ(v.substr(0, 3), data.substr(250, 3));
}

TEST_P(SlidingWindowTest, SpanAndRefillAtReturnMaximalResidentViews) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += static_cast<char>('a' + i % 26);
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);

  // Nothing resident yet: Span must not touch the stream.
  EXPECT_TRUE(win.Span(0).empty());

  std::string_view first = win.RefillAt(0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, win.Span(0));
  EXPECT_EQ(first.substr(0, 3), data.substr(0, 3));
  // The span is maximal: it runs to the window limit.
  EXPECT_EQ(first.size(), static_cast<size_t>(win.limit()));

  // A mid-span position returns the resident suffix.
  std::string_view mid = win.Span(10);
  EXPECT_EQ(mid.size(), first.size() - 10);
  EXPECT_EQ(mid.substr(0, 3), data.substr(10, 3));

  // Past the resident limit Span is empty until RefillAt slides forward.
  uint64_t beyond = win.limit() + 5;
  EXPECT_TRUE(win.Span(beyond).empty());
  win.set_lock(beyond);
  std::string_view later = win.RefillAt(beyond);
  ASSERT_FALSE(later.empty());
  EXPECT_EQ(later.substr(0, 3),
            data.substr(static_cast<size_t>(beyond), 3));

  // At end of stream RefillAt returns empty.
  win.set_lock(data.size());
  EXPECT_TRUE(win.RefillAt(data.size()).empty());
}

TEST_P(SlidingWindowTest, JumpFarBeyondBufferBridgesGap) {
  std::string data(10000, 'x');
  data[9000] = 'Y';
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);
  std::string evicted;
  win.set_evict_fn([&](uint64_t, std::string_view bytes) {
    evicted.append(bytes);
  });
  win.set_lock(9000);
  ASSERT_GE(win.Ensure(9000, 1), 1u);
  EXPECT_EQ(win.At(9000), 'Y');
  EXPECT_EQ(evicted.size(), 9000u) << "every skipped byte passed the hook";
}

TEST_P(SlidingWindowTest, EnsurePastEofReturnsShortCount) {
  auto in = Stream("abc");
  SlidingWindow win(in.get(), 64);
  EXPECT_EQ(win.Ensure(0, 10), 3u);
  EXPECT_EQ(win.Ensure(3, 1), 0u);
  EXPECT_TRUE(win.AtEnd(3));
}

TEST_P(SlidingWindowTest, MoreInputAfterMaterialize) {
  std::string data;
  for (int i = 0; i < 700; ++i) data += static_cast<char>('A' + i % 58);
  auto in = Stream(data);
  SlidingWindow win(in.get(), 64);
  std::string evicted;
  win.set_evict_fn([&](uint64_t, std::string_view bytes) {
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos < data.size(); pos += 9) {
    win.set_lock(pos > 20 ? pos - 20 : 0);
    ASSERT_GE(win.Ensure(pos, 1), 1u);
    const uint64_t base = win.base(), limit = win.limit();
    win.Materialize();
    EXPECT_EQ(win.base(), base);
    EXPECT_EQ(win.limit(), limit);
    EXPECT_EQ(win.Span(base), std::string_view(data).substr(
                                  static_cast<size_t>(base),
                                  static_cast<size_t>(limit - base)));
  }
  win.set_lock(data.size());
  EXPECT_EQ(win.Ensure(data.size(), 1), 0u);  // slides out the tail
  EXPECT_EQ(evicted, data);
}

/// Drives a window through a seeded random mix of operations and records
/// every observable -- each Span/View/At result, the geometry after each
/// step and the eviction callbacks -- so two windows over the same bytes
/// can be compared operation by operation.
void DriveRandomly(InputStream* in, size_t capacity, uint32_t seed,
                   size_t doc_size, std::vector<std::string>* events) {
  SlidingWindow win(in, capacity);
  win.set_evict_fn([events](uint64_t begin, std::string_view bytes) {
    events->push_back("evict " + std::to_string(begin) + " " +
                      std::string(bytes));
  });
  uint32_t x = seed;
  auto next = [&x](uint32_t n) {
    x = x * 1664525u + 1013904223u;
    return (x >> 8) % n;
  };
  uint64_t pos = 0;
  for (int op = 0; op < 400 && pos <= doc_size; ++op) {
    const uint32_t kind = next(10);
    std::string e;
    if (kind < 4) {
      pos += next(static_cast<uint32_t>(capacity / 2) + 1);
      win.set_lock(pos > 8 ? pos - next(9) : 0);
      std::string_view v = win.View(pos, next(16) + 1);
      e = "view " + std::string(v);
    } else if (kind < 6) {
      e = "span " + std::string(win.Span(pos)) + " ensure " +
          std::to_string(win.Ensure(pos, next(8) + 1));
      if (pos < win.limit() && pos >= win.base()) e += win.At(pos);
    } else if (kind == 6) {
      // A jump past everything resident: the gap bridge.
      pos += capacity + next(static_cast<uint32_t>(3 * capacity));
      win.set_lock(pos);
      e = "refill " + std::string(win.RefillAt(pos));
    } else if (kind == 7) {
      // Growth: a locked span longer than the capacity.
      win.set_lock(pos);
      e = "grow " + std::to_string(win.Ensure(pos, capacity + next(200)));
    } else if (kind == 8) {
      win.Materialize();
      e = "materialize";
    } else {
      e = std::string("atend ") + (win.AtEnd(pos) ? "1" : "0");
    }
    e += " base=" + std::to_string(win.base()) +
         " limit=" + std::to_string(win.limit()) +
         " cap=" + std::to_string(win.capacity()) +
         " peak=" + std::to_string(win.max_capacity_used());
    events->push_back(std::move(e));
  }
}

TEST(SlidingWindowDiffTest, LendingAndCopyingWindowsAgreeOpForOp) {
  std::string data;
  for (int i = 0; i < 20000; ++i) {
    data += static_cast<char>('a' + (i * 7 + i / 13) % 26);
  }
  for (size_t capacity : {64u, 100u, 1000u}) {
    for (size_t piece : {0u, 7u, 64u, 333u, 5000u}) {
      for (uint32_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "capacity=" << capacity
                                        << " piece=" << piece
                                        << " seed=" << seed);
        // piece 0: one contiguous lent range (MemoryInputStream).
        std::unique_ptr<InputStream> lend, copy;
        if (piece == 0) {
          lend = std::make_unique<MemoryInputStream>(data);
          copy = std::make_unique<CopyOnlyStream>(data);
        } else {
          lend = std::make_unique<PiecewiseStream>(data, piece, true);
          copy = std::make_unique<PiecewiseStream>(data, piece, false);
        }
        std::vector<std::string> a, b;
        DriveRandomly(lend.get(), capacity, seed, data.size(), &a);
        DriveRandomly(copy.get(), capacity, seed, data.size(), &b);
        ASSERT_EQ(a, b);
      }
    }
  }
}

TEST(SlidingWindowDiffTest, DiscontiguousLendSwitchesToOwnedStorageInOrder) {
  // Pieces of 40 bytes under a 64-byte window: every refill straddles a
  // piece boundary, so the window starts lent and switches to owned
  // storage whenever the next lend does not continue it in memory.
  std::string data;
  for (int i = 0; i < 2000; ++i) data += static_cast<char>(' ' + i % 95);
  PiecewiseStream in(data, 40, /*lend=*/true);
  SlidingWindow win(&in, 64);
  std::string evicted;
  win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
    EXPECT_EQ(begin, evicted.size());
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos + 30 <= data.size(); pos += 17) {
    win.set_lock(pos);
    std::string_view v = win.View(pos, 30);
    ASSERT_GE(v.size(), 30u) << pos;
    ASSERT_EQ(v, std::string_view(data).substr(static_cast<size_t>(pos),
                                               v.size()))
        << pos;
  }
  win.set_lock(data.size());
  EXPECT_EQ(win.Ensure(data.size(), 1), 0u);  // slides out the tail
  EXPECT_EQ(evicted, data) << "no byte lost or reordered";
}

TEST(SlidingWindowDiffTest, GapBridgeAndGrowthWhileLent) {
  std::string data;
  for (int i = 0; i < 50000; ++i) data += static_cast<char>('0' + i % 10);
  for (size_t piece : {0u, 300u}) {
    SCOPED_TRACE(piece);
    std::unique_ptr<InputStream> in;
    if (piece == 0) {
      in = std::make_unique<MemoryInputStream>(data);
    } else {
      in = std::make_unique<PiecewiseStream>(data, piece, true);
    }
    SlidingWindow win(in.get(), 64);
    std::string evicted;
    win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
      EXPECT_EQ(begin, evicted.size());
      evicted.append(bytes);
    });
    // Gap bridge: jump 10000 bytes past everything resident.
    win.set_lock(10000);
    ASSERT_EQ(win.View(10000, 4), std::string_view(data).substr(10000, 64));
    EXPECT_EQ(evicted.size(), 10000u);
    // Growth: a locked 5000-byte span under a 64-byte capacity.
    ASSERT_EQ(win.Ensure(10000, 5000), 5000u);
    EXPECT_GE(win.capacity(), 5000u);
    EXPECT_EQ(win.Span(10000).substr(0, 5000),
              std::string_view(data).substr(10000, 5000));
    // Then stream on to the end through the grown window.
    for (uint64_t pos = 10000; pos < data.size(); pos += 1000) {
      win.set_lock(pos);
      ASSERT_EQ(win.View(pos, 1).substr(0, 1), data.substr(pos, 1));
    }
    win.set_lock(data.size());
    EXPECT_EQ(win.Ensure(data.size(), 1), 0u);  // slides out the tail
    EXPECT_EQ(evicted, data);
    EXPECT_EQ(win.max_capacity_used(), 8192u);
  }
}

TEST(SlidingWindowDiffTest, MaterializedBytesOutliveTheLentMemory) {
  // The push-mode pattern: a chunk is lent, the window materializes, and
  // the chunk's memory is overwritten before the next chunk arrives.
  class ChunkStream : public InputStream {
   public:
    std::string_view chunk;
    Result<size_t> Read(char*, size_t) override {
      return Status::Internal("lend only");
    }
    std::optional<std::string_view> Lend(size_t len) override {
      std::string_view v = chunk.substr(0, len);
      chunk.remove_prefix(v.size());
      return v;
    }
  };
  const std::string data = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string buf = data.substr(0, 20);
  ChunkStream in;
  in.chunk = buf;
  SlidingWindow win(&in, 64);
  EXPECT_EQ(win.Ensure(0, 30), 20u);
  EXPECT_TRUE(win.eof_seen());
  win.Materialize();
  buf.assign(20, '#');  // the caller reuses its memory
  buf = data.substr(20);
  in.chunk = buf;
  win.ClearEof();
  ASSERT_EQ(win.Ensure(0, 30), 30u);
  EXPECT_EQ(win.View(0, 30), data);
  EXPECT_EQ(win.max_capacity_used(), 64u);
}

TEST(HashStabilityTest, Hash64ValuesArePinnedForever) {
  // These values are baked into every saved boundary-index file and
  // cursor token (document digests, table fingerprints, trailing content
  // hashes). A change here is a FORMAT BREAK: bump the index/token format
  // version instead of updating the expectations. The first two are the
  // reference XXH64 vectors, pinning cross-implementation compatibility.
  EXPECT_EQ(Hash64(""), 17241709254077376921ull);   // xxh64 ef46db3751d8e999
  EXPECT_EQ(Hash64("abc"), 4952883123889572249ull);  // xxh64 44bc2cf5ad770999
  EXPECT_EQ(Hash64("smpx boundary index"), 11744050980586103378ull);
  std::string long_input;
  for (int i = 0; i < 1000; ++i) {
    long_input += static_cast<char>('a' + i % 26);
  }
  EXPECT_EQ(Hash64(long_input), 10716435957372782249ull);
  EXPECT_EQ(Hash64("abc", 77), 3540267617390289244ull);
  EXPECT_EQ(HashCombine(1, 2), 4498758804896154761ull);
  // Single-byte sensitivity: flipping any one byte moves the hash.
  EXPECT_NE(Hash64("smpx boundary index"), Hash64("smpx boundary inde_"));
}

TEST(HashStabilityTest, Hash64StreamMatchesOneShotAtEverySplit) {
  // The chunked index build digests the document incrementally; its files
  // interoperate with Matches() only if the streaming digest is EXACTLY
  // the one-shot Hash64. Cover all tail lengths (0..31), stripe
  // boundaries, and multi-piece splits.
  std::string input;
  for (int i = 0; i < 300; ++i) {
    input += static_cast<char>('A' + (i * 7) % 61);
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{31}, size_t{32},
                     size_t{33}, size_t{64}, size_t{100}, input.size()}) {
    std::string_view piece(input.data(), len);
    const uint64_t want = Hash64(piece);
    for (size_t split = 0; split <= len; ++split) {
      Hash64Stream h;
      h.Update(piece.substr(0, split));
      h.Update(piece.substr(split));
      EXPECT_EQ(h.Digest(), want) << "len=" << len << " split=" << split;
    }
    // Byte-at-a-time, and Digest() must be repeatable (non-destructive).
    Hash64Stream one;
    for (size_t i = 0; i < len; ++i) one.Update(piece.substr(i, 1));
    EXPECT_EQ(one.Digest(), want) << "byte-at-a-time len=" << len;
    EXPECT_EQ(one.Digest(), want) << "second Digest() call len=" << len;
  }
  // Seeded variant agrees too.
  Hash64Stream seeded(77);
  seeded.Update("ab");
  seeded.Update("c");
  EXPECT_EQ(seeded.Digest(), Hash64("abc", 77));
}

TEST(FileSourceTest, ReadsAtArbitraryOffsetsWithoutMapping) {
  std::string payload;
  for (int i = 0; i < 5000; ++i) payload += static_cast<char>('a' + i % 26);
  std::string path = "/tmp/smpx_filesource_test.bin";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());

  auto src = FileSource::Open(path);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_EQ((*src)->size(), payload.size());
  // FileSource deliberately offers no contiguous view.
  EXPECT_EQ((*src)->Contiguous().data(), nullptr);

  char buf[512];
  for (uint64_t off : {uint64_t{0}, uint64_t{1}, uint64_t{4999},
                       uint64_t{4000}, uint64_t{2600}}) {
    auto n = (*src)->ReadAt(off, buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    size_t want = std::min<size_t>(sizeof(buf), payload.size() - off);
    ASSERT_EQ(*n, want) << "offset " << off;
    EXPECT_EQ(std::string_view(buf, *n), std::string_view(payload).substr(off, want));
  }
  // Reads at or past EOF return zero bytes, not an error.
  auto eof = (*src)->ReadAt(payload.size(), buf, sizeof(buf));
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace smpx
