// Tests for the common substrate: Status/Result, string helpers, streams,
// and the sliding window (including eviction callbacks and growth), fed
// one chunk scanned in place or separately allocated pieces it must copy.

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

/// A window fed the bytes of `data`: with `piece` 0 as one chunk scanned
/// in place, otherwise from separately allocated pieces of `piece` bytes,
/// the next piece fed whenever the window reports end of input. Separate
/// pieces are discontiguous in memory, so the window copies at every piece
/// boundary. The forwarding calls feed the next piece and repeat the call
/// until it no longer runs out of fed bytes.
class FedWindow {
 public:
  FedWindow(std::string_view data, size_t piece, size_t capacity)
      : win(capacity) {
    if (piece == 0) {
      chunks_.push_back(data);
    } else {
      for (size_t i = 0; i < data.size(); i += piece) {
        owned_.emplace_back(data.substr(i, piece));
      }
      chunks_.assign(owned_.begin(), owned_.end());
    }
    if (chunks_.empty()) chunks_.emplace_back();
    win.Feed(chunks_[next_++]);
  }

  size_t Ensure(uint64_t pos, size_t len) {
    return Fed([&] { return win.Ensure(pos, len); });
  }
  std::string_view View(uint64_t pos, size_t len) {
    return Fed([&] { return win.View(pos, len); });
  }
  std::string_view RefillAt(uint64_t pos) {
    return Fed([&] { return win.RefillAt(pos); });
  }
  bool AtEnd(uint64_t pos) {
    return Fed([&] { return win.AtEnd(pos); });
  }

  SlidingWindow win;

 private:
  template <typename Op>
  auto Fed(Op op) -> decltype(op()) {
    auto result = op();
    while (win.eof_seen() && next_ < chunks_.size()) {
      win.Feed(chunks_[next_++]);
      result = op();
      if (!win.eof_seen()) {
        // The repeated call may have been served from resident bytes: top
        // the window up without sliding, as one chunk would have filled
        // it, and ask again.
        win.Ensure(win.base(), win.capacity());
        result = op();
      }
    }
    return result;
  }

  std::vector<std::string> owned_;  // the separately allocated pieces
  std::vector<std::string_view> chunks_;
  size_t next_ = 0;
};

/// Every SlidingWindowTest runs over one fed chunk and over separately
/// allocated pieces: the window's results and eviction callbacks must not
/// depend on where the bytes live.
enum class Feeding { kChunk, kPieces };

class SlidingWindowTest : public testing::TestWithParam<Feeding> {
 protected:
  /// 40-byte pieces under a 64-byte window: most refills straddle one.
  std::unique_ptr<FedWindow> Window(std::string_view data) const {
    return std::make_unique<FedWindow>(
        data, GetParam() == Feeding::kChunk ? 0 : 40, 64);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Feeding, SlidingWindowTest,
    testing::Values(Feeding::kChunk, Feeding::kPieces),
    [](const testing::TestParamInfo<Feeding>& info) {
      return info.param == Feeding::kChunk ? "Chunk" : "Pieces";
    });

TEST_P(SlidingWindowTest, ReadsWholeStreamThroughSmallWindow) {
  std::string data(1000, '\0');
  std::iota(data.begin(), data.end(), 0);
  auto w = Window(data);
  for (uint64_t pos = 0; pos < data.size(); ++pos) {
    w->win.set_lock(pos);
    ASSERT_EQ(w->Ensure(pos, 1), 1u) << pos;
    EXPECT_EQ(w->win.At(pos), data[static_cast<size_t>(pos)]);
  }
  EXPECT_TRUE(w->AtEnd(data.size()));
  EXPECT_FALSE(w->AtEnd(0));
}

TEST_P(SlidingWindowTest, EvictionSeesEveryByteInOrder) {
  std::string data;
  for (int i = 0; i < 500; ++i) data += static_cast<char>('a' + i % 26);
  auto w = Window(data);
  std::string evicted;
  uint64_t expected_next = 0;
  w->win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
    EXPECT_EQ(begin, expected_next);
    expected_next = begin + bytes.size();
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos < data.size(); pos += 10) {
    w->win.set_lock(pos);
    w->Ensure(pos, 10);
  }
  w->win.set_lock(data.size());
  w->Ensure(data.size(), 1);
  EXPECT_EQ(evicted, data);
}

TEST_P(SlidingWindowTest, GrowsWhenLockedSpanExceedsCapacity) {
  std::string data(4096, 'q');
  auto w = Window(data);
  w->win.set_lock(0);  // nothing may be evicted
  ASSERT_EQ(w->Ensure(0, 2000), 2000u);
  EXPECT_GE(w->win.capacity(), 2000u);
  EXPECT_GE(w->win.max_capacity_used(), 2000u);
  std::string_view v = w->View(0, 2000);
  EXPECT_EQ(v.substr(0, 5), "qqqqq");
}

TEST_P(SlidingWindowTest, ViewAcrossRefillKeepsAbsolutePositions) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += std::to_string(i % 10);
  auto w = Window(data);
  w->win.set_lock(250);
  std::string_view v = w->View(250, 20);
  ASSERT_GE(v.size(), 20u);
  EXPECT_EQ(v.substr(0, 3), data.substr(250, 3));
}

TEST_P(SlidingWindowTest, SpanAndRefillAtReturnMaximalResidentViews) {
  std::string data;
  for (int i = 0; i < 300; ++i) data += static_cast<char>('a' + i % 26);
  auto w = Window(data);

  // Nothing resident yet: Span must not take fed bytes.
  EXPECT_TRUE(w->win.Span(0).empty());

  std::string_view first = w->RefillAt(0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, w->win.Span(0));
  EXPECT_EQ(first.substr(0, 3), data.substr(0, 3));
  // The span is maximal: it runs to the window limit.
  EXPECT_EQ(first.size(), static_cast<size_t>(w->win.limit()));

  // A mid-span position returns the resident suffix.
  std::string_view mid = w->win.Span(10);
  EXPECT_EQ(mid.size(), first.size() - 10);
  EXPECT_EQ(mid.substr(0, 3), data.substr(10, 3));

  // Past the resident limit Span is empty until RefillAt slides forward.
  uint64_t beyond = w->win.limit() + 5;
  EXPECT_TRUE(w->win.Span(beyond).empty());
  w->win.set_lock(beyond);
  std::string_view later = w->RefillAt(beyond);
  ASSERT_FALSE(later.empty());
  EXPECT_EQ(later.substr(0, 3),
            data.substr(static_cast<size_t>(beyond), 3));

  // At end of input RefillAt returns empty.
  w->win.set_lock(data.size());
  EXPECT_TRUE(w->RefillAt(data.size()).empty());
}

TEST_P(SlidingWindowTest, JumpFarBeyondBufferBridgesGap) {
  std::string data(10000, 'x');
  data[9000] = 'Y';
  auto w = Window(data);
  std::string evicted;
  w->win.set_evict_fn([&](uint64_t, std::string_view bytes) {
    evicted.append(bytes);
  });
  w->win.set_lock(9000);
  ASSERT_GE(w->Ensure(9000, 1), 1u);
  EXPECT_EQ(w->win.At(9000), 'Y');
  EXPECT_EQ(evicted.size(), 9000u) << "every skipped byte passed the hook";
}

TEST_P(SlidingWindowTest, EnsurePastEofReturnsShortCount) {
  auto w = Window("abc");
  EXPECT_EQ(w->Ensure(0, 10), 3u);
  EXPECT_EQ(w->Ensure(3, 1), 0u);
  EXPECT_TRUE(w->AtEnd(3));
}

TEST_P(SlidingWindowTest, MoreInputAfterMaterialize) {
  std::string data;
  for (int i = 0; i < 700; ++i) data += static_cast<char>('A' + i % 58);
  auto w = Window(data);
  std::string evicted;
  w->win.set_evict_fn([&](uint64_t, std::string_view bytes) {
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos < data.size(); pos += 9) {
    w->win.set_lock(pos > 20 ? pos - 20 : 0);
    ASSERT_GE(w->Ensure(pos, 1), 1u);
    const uint64_t base = w->win.base(), limit = w->win.limit();
    w->win.Materialize();
    EXPECT_EQ(w->win.base(), base);
    EXPECT_EQ(w->win.limit(), limit);
    EXPECT_EQ(w->win.Span(base), std::string_view(data).substr(
                                     static_cast<size_t>(base),
                                     static_cast<size_t>(limit - base)));
  }
  w->win.set_lock(data.size());
  EXPECT_EQ(w->Ensure(data.size(), 1), 0u);  // slides out the tail
  EXPECT_EQ(evicted, data);
}

/// Drives a window over `data` fed in pieces of `piece` bytes (see
/// FedWindow) through a seeded random mix of operations and records every
/// observable -- each Span/View/At result, the geometry after each step
/// and the evicted bytes -- so two feeds of the same bytes can be compared
/// operation by operation. One operation's evictions are one event: the
/// feed may split them into different callbacks.
void DriveRandomly(std::string_view data, size_t piece, size_t capacity,
                   uint32_t seed, std::vector<std::string>* events) {
  FedWindow w(data, piece, capacity);
  bool evicting = false;  // the last event is this operation's eviction
  w.win.set_evict_fn(
      [events, &evicting](uint64_t begin, std::string_view bytes) {
        if (evicting) {
          events->back().append(bytes);
          return;
        }
        events->push_back("evict " + std::to_string(begin) + " " +
                          std::string(bytes));
        evicting = true;
      });
  uint32_t x = seed;
  auto next = [&x](uint32_t n) {
    x = x * 1664525u + 1013904223u;
    return (x >> 8) % n;
  };
  uint64_t pos = 0;
  for (int op = 0; op < 400 && pos <= data.size(); ++op) {
    const uint32_t kind = next(10);
    std::string e;
    if (kind < 4) {
      pos += next(static_cast<uint32_t>(capacity / 2) + 1);
      w.win.set_lock(pos > 8 ? pos - next(9) : 0);
      std::string_view v = w.View(pos, next(16) + 1);
      e = "view " + std::string(v);
    } else if (kind < 6) {
      e = "span " + std::string(w.win.Span(pos)) + " ensure " +
          std::to_string(w.Ensure(pos, next(8) + 1));
      if (pos < w.win.limit() && pos >= w.win.base()) e += w.win.At(pos);
    } else if (kind == 6) {
      // A jump past everything resident: the gap bridge.
      pos += capacity + next(static_cast<uint32_t>(3 * capacity));
      w.win.set_lock(pos);
      e = "refill " + std::string(w.RefillAt(pos));
    } else if (kind == 7) {
      // Growth: a locked span longer than the capacity.
      w.win.set_lock(pos);
      e = "grow " + std::to_string(w.Ensure(pos, capacity + next(200)));
    } else if (kind == 8) {
      w.win.Materialize();
      e = "materialize";
    } else {
      e = std::string("atend ") + (w.AtEnd(pos) ? "1" : "0");
    }
    e += " base=" + std::to_string(w.win.base()) +
         " limit=" + std::to_string(w.win.limit()) +
         " cap=" + std::to_string(w.win.capacity()) +
         " peak=" + std::to_string(w.win.max_capacity_used());
    events->push_back(std::move(e));
    evicting = false;
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
        // piece 0: the whole document as one separately allocated piece.
        std::vector<std::string> a, b;
        DriveRandomly(data, 0, capacity, seed, &a);
        DriveRandomly(data, piece == 0 ? data.size() : piece, capacity, seed,
                      &b);
        ASSERT_EQ(a, b);
      }
    }
  }
}

TEST(SlidingWindowDiffTest, DiscontiguousLendSwitchesToOwnedStorageInOrder) {
  // Pieces of 40 bytes under a 64-byte window: every refill straddles a
  // piece boundary, so the window starts lent and switches to owned
  // storage whenever the next piece does not continue it in memory.
  std::string data;
  for (int i = 0; i < 2000; ++i) data += static_cast<char>(' ' + i % 95);
  FedWindow w(data, 40, 64);
  std::string evicted;
  w.win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
    EXPECT_EQ(begin, evicted.size());
    evicted.append(bytes);
  });
  for (uint64_t pos = 0; pos + 30 <= data.size(); pos += 17) {
    w.win.set_lock(pos);
    std::string_view v = w.View(pos, 30);
    ASSERT_GE(v.size(), 30u) << pos;
    ASSERT_EQ(v, std::string_view(data).substr(static_cast<size_t>(pos),
                                               v.size()))
        << pos;
  }
  w.win.set_lock(data.size());
  EXPECT_EQ(w.Ensure(data.size(), 1), 0u);  // slides out the tail
  EXPECT_EQ(evicted, data) << "no byte lost or reordered";
}

TEST(SlidingWindowDiffTest, GapBridgeAndGrowthWhileLent) {
  std::string data;
  for (int i = 0; i < 50000; ++i) data += static_cast<char>('0' + i % 10);
  for (size_t piece : {0u, 300u}) {
    SCOPED_TRACE(piece);
    FedWindow w(data, piece, 64);
    std::string evicted;
    w.win.set_evict_fn([&](uint64_t begin, std::string_view bytes) {
      EXPECT_EQ(begin, evicted.size());
      evicted.append(bytes);
    });
    // Gap bridge: jump 10000 bytes past everything resident.
    w.win.set_lock(10000);
    ASSERT_EQ(w.View(10000, 4), std::string_view(data).substr(10000, 64));
    EXPECT_EQ(evicted.size(), 10000u);
    // Growth: a locked 5000-byte span under a 64-byte capacity.
    ASSERT_EQ(w.Ensure(10000, 5000), 5000u);
    EXPECT_GE(w.win.capacity(), 5000u);
    EXPECT_EQ(w.win.Span(10000).substr(0, 5000),
              std::string_view(data).substr(10000, 5000));
    // Then stream on to the end through the grown window.
    for (uint64_t pos = 10000; pos < data.size(); pos += 1000) {
      w.win.set_lock(pos);
      ASSERT_EQ(w.View(pos, 1).substr(0, 1), data.substr(pos, 1));
    }
    w.win.set_lock(data.size());
    EXPECT_EQ(w.Ensure(data.size(), 1), 0u);  // slides out the tail
    EXPECT_EQ(evicted, data);
    EXPECT_EQ(w.win.max_capacity_used(), 8192u);
  }
}

TEST(SlidingWindowDiffTest, MaterializedBytesOutliveTheLentMemory) {
  // A session's pattern: a chunk is fed, the window materializes, and the
  // chunk's memory is overwritten before the next chunk arrives.
  const std::string data = "0123456789abcdefghijklmnopqrstuvwxyz";
  std::string buf = data.substr(0, 20);
  SlidingWindow win(64);
  win.Feed(buf);
  EXPECT_EQ(win.Ensure(0, 30), 20u);
  EXPECT_TRUE(win.eof_seen());
  win.Materialize();
  buf.assign(20, '#');  // the caller reuses its memory
  buf = data.substr(20);
  win.Feed(buf);
  EXPECT_FALSE(win.eof_seen());
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
