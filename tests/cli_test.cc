// End-to-end tests for the smpx command-line tool's batch mode: per-input
// output naming (in.xml -> in.proj.xml, in.proj.qN.xml per query in
// multi-query mode), document-order per-input stats, per-document error
// isolation with a nonzero exit code, the --out concatenation mode's
// argument-order merge, and batches under a tight fd limit. The binary
// path is injected by CMake as SMPX_CLI_PATH; expected outputs come from
// the library's serial engine over the same inputs.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/thread_pool.h"

namespace smpx {
namespace {

constexpr char kDtdText[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
constexpr char kPaths[] = "/a/b#";

TEST(ProjectedOutputPathTest, NamesFollowTheInputPath) {
  EXPECT_EQ(ProjectedOutputPath("in.xml"), "in.proj.xml");
  EXPECT_EQ(ProjectedOutputPath("dir/sub/in.xml"), "dir/sub/in.proj.xml");
  EXPECT_EQ(ProjectedOutputPath("data.bin"), "data.bin.proj.xml");
  EXPECT_EQ(ProjectedOutputPath(".xml"), ".xml.proj.xml");
}

#ifndef SMPX_CLI_PATH
TEST(CliBatchTest, DISABLED_BinaryUnavailable) {}
#else

struct CliResult {
  int exit_code = -1;
  std::string err;
};

/// Runs the CLI with `args`, capturing stderr. `shell_prefix` is prepended
/// inside the shell command (e.g. "ulimit -n 32; " for the fd-limit test).
CliResult RunCli(const std::string& args,
                 const std::string& shell_prefix = std::string()) {
  std::string err_file = ::testing::TempDir() + "/smpx_cli_stderr.txt";
  std::string cmd = shell_prefix + "\"" + SMPX_CLI_PATH + "\" " + args +
                    " 2>\"" + err_file + "\"";
  int rc = std::system(cmd.c_str());
  CliResult r;
  r.exit_code = rc == -1 ? -1 : WEXITSTATUS(rc);
  auto err = ReadFileToString(err_file);
  r.err = err.ok() ? *err : std::string();
  std::remove(err_file.c_str());
  return r;
}

std::string SerialExpected(const std::string& doc,
                           const char* path_list = kPaths) {
  auto dtd = dtd::Dtd::Parse(kDtdText);
  EXPECT_TRUE(dtd.ok());
  if (!dtd.ok()) return std::string();
  auto paths = paths::ProjectionPath::ParseList(path_list);
  EXPECT_TRUE(paths.ok());
  if (!paths.ok()) return std::string();
  auto pf = core::Prefilter::Compile(std::move(*dtd), *paths);
  EXPECT_TRUE(pf.ok());
  if (!pf.ok()) return std::string();
  auto out = pf->RunOnBuffer(doc);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::string();
}

struct Fixture {
  std::string dtd_path;
  std::vector<std::string> inputs;
  std::vector<std::string> docs;

  explicit Fixture(const std::vector<std::string>& contents) {
    const std::string dir = ::testing::TempDir();
    dtd_path = dir + "/smpx_cli_test.dtd";
    EXPECT_TRUE(WriteStringToFile(dtd_path, kDtdText).ok());
    for (size_t i = 0; i < contents.size(); ++i) {
      std::string path =
          dir + "/smpx_cli_in" + std::to_string(i) + ".xml";
      EXPECT_TRUE(WriteStringToFile(path, contents[i]).ok());
      inputs.push_back(path);
      docs.push_back(contents[i]);
    }
  }
  ~Fixture() {
    std::remove(dtd_path.c_str());
    for (const std::string& p : inputs) {
      std::remove(p.c_str());
      std::remove(ProjectedOutputPath(p).c_str());
    }
  }
  std::string InputArgs() const {
    std::string args;
    for (const std::string& p : inputs) args += " \"" + p + "\"";
    return args;
  }
};

TEST(CliBatchTest, PerInputOutputFilesWithDocumentOrderStats) {
  Fixture fx({"<a><b>first</b><c>x</c></a>",
              "<a><c>y</c><b>second</b><b>again</b></a>",
              "<a><b>third</b></a>"});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch --stats --threads 3" + fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  size_t prev_pos = 0;
  for (size_t i = 0; i < fx.inputs.size(); ++i) {
    std::string out_path = ProjectedOutputPath(fx.inputs[i]);
    auto content = ReadFileToString(out_path);
    ASSERT_TRUE(content.ok()) << out_path;
    EXPECT_EQ(*content, SerialExpected(fx.docs[i])) << out_path;
    // The per-input stats lines must appear in document (argument) order.
    std::string marker = fx.inputs[i] + " -> " + out_path + ":";
    size_t pos = r.err.find(marker);
    ASSERT_NE(pos, std::string::npos) << r.err;
    EXPECT_GE(pos, prev_pos) << "stats lines out of document order:\n"
                             << r.err;
    prev_pos = pos;
  }
}

TEST(CliBatchTest, SingleInputBatchStillWritesPerInputFile) {
  // Regression: batch mode with one input used to fall through to the
  // single-document path (stdout instead of in.proj.xml).
  Fixture fx({"<a><b>solo</b><c>no</c></a>"});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch" + fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(ProjectedOutputPath(fx.inputs[0]));
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, SerialExpected(fx.docs[0]));
}

TEST(CliBatchTest, PerDocumentErrorsAreIsolated) {
  Fixture fx({"<a><b>good one</b></a>",
              "<a><b>truncated",  // invalid: never closed
              "<a><b>good two</b></a>"});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch --threads 2" + fx.InputArgs());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find(fx.inputs[1]), std::string::npos) << r.err;
  for (size_t i : {size_t{0}, size_t{2}}) {
    auto content = ReadFileToString(ProjectedOutputPath(fx.inputs[i]));
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, SerialExpected(fx.docs[i]));
  }
}

TEST(CliBatchTest, DuplicateInputsAreRejected) {
  // Two identical input paths would race on one output file; the CLI must
  // refuse instead of silently corrupting it.
  Fixture fx({"<a><b>dup</b></a>"});
  CliResult r =
      RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
             "\" --batch \"" + fx.inputs[0] + "\" \"" + fx.inputs[0] + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("duplicate"), std::string::npos) << r.err;
}

TEST(CliBatchTest, MaxBufferBudgetKeepsOutputsByteIdentical) {
  // A 1-byte budget forces every shard segment and batch document through
  // the spill + ordered-commit path; outputs must not change. Also covers
  // the suffixed size spelling and stdout through the buffered sink.
  std::string big = "<a>";
  for (int i = 0; i < 200; ++i) {
    big += "<b>payload " + std::to_string(i) + "</b><c>drop</c>";
  }
  big += "</a>";
  Fixture fx({big, "<a><b>two</b></a>"});
  std::string expected0 = SerialExpected(fx.docs[0]);

  // Sharded single document, tiny budget, explicit output file.
  std::string out = ::testing::TempDir() + "/smpx_cli_budget.xml";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --threads 4 --max-buffer 1 \"" + fx.inputs[0] +
                       "\" \"" + out + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(out);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, expected0);
  std::remove(out.c_str());

  // Batch --out through the streaming merged driver with a suffixed size.
  std::string merged = ::testing::TempDir() + "/smpx_cli_budget_merged.xml";
  r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
             "\" --batch --threads 2 --max-buffer 1KiB --chunk 64 --out \"" +
             merged + "\"" + fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  content = ReadFileToString(merged);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, expected0 + SerialExpected(fx.docs[1]));
  std::remove(merged.c_str());

  // Malformed sizes are usage errors, not silent zeros.
  r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
             "\" --max-buffer nonsense \"" + fx.inputs[1] + "\"");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("byte size"), std::string::npos) << r.err;
}

TEST(CliBatchTest, OutFlagConcatenatesInArgumentOrder) {
  Fixture fx({"<a><b>one</b></a>", "<a><b>two</b><c>z</c></a>",
              "<a><c>q</c><b>three</b></a>"});
  std::string merged = ::testing::TempDir() + "/smpx_cli_merged.xml";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch --threads 2 --out \"" + merged + "\"" +
                       fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(merged);
  ASSERT_TRUE(content.ok());
  std::string expected;
  for (const std::string& d : fx.docs) expected += SerialExpected(d);
  EXPECT_EQ(*content, expected);
  std::remove(merged.c_str());
}

TEST(CliBatchTest, LowFdLimitBatchStillWritesEveryOutputFile) {
  // 60 documents under a 32-fd limit: the per-input batch driver must not
  // hold every output file open at once (the pre-ordered-commit driver
  // did exactly that and died here), and budgeted segments must not cost
  // one spill tmpfile fd each (the pre-SpillArena driver did: every
  // overflowing or parked segment opened its own tmpfile). With the batch
  // sharing a single spill-arena file, both the in-memory and the
  // spill-everything extremes fit the same tight fd budget.
  std::vector<std::string> contents;
  for (int i = 0; i < 60; ++i) {
    contents.push_back("<a><b>doc " + std::to_string(i) +
                       "</b><c>drop</c></a>");
  }
  Fixture fx(contents);
  // --max-buffer 0: segments stay in memory; only output files cost fds.
  // --max-buffer 1: every segment overflows into the shared arena, and
  // out-of-order completions park there too -- still one spill fd total.
  for (const char* budget : {"0", "1"}) {
    SCOPED_TRACE(budget);
    CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                             "\" --batch --threads 4 --max-buffer " + budget +
                             fx.InputArgs(),
                         "ulimit -n 32; ");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    for (size_t i = 0; i < fx.inputs.size(); ++i) {
      auto content = ReadFileToString(ProjectedOutputPath(fx.inputs[i]));
      ASSERT_TRUE(content.ok()) << fx.inputs[i];
      EXPECT_EQ(*content, SerialExpected(fx.docs[i])) << fx.inputs[i];
    }
  }
}

TEST(CliBatchTest, LowFdLimitMultiQueryBatchWritesEveryQueryFile) {
  // The multi-query twin of the test above: three queries (one a
  // duplicate, served by the same product component) over 60 documents
  // under a 32-fd limit. Every in.proj.qN.xml must exist and equal that
  // query's own serial run. A driver that opens each document's query
  // files up front (or all of them at once) runs out of descriptors here.
  const char* queries[] = {"/a/b#", "/a/c#", "/a/b#"};
  std::vector<std::string> contents;
  for (int i = 0; i < 60; ++i) {
    contents.push_back("<a><b>doc " + std::to_string(i) + "</b><c>q" +
                       std::to_string(i) + "</c></a>");
  }
  Fixture fx(contents);
  // in.xml -> in.proj.q1.xml, ... (query order, 1-based).
  auto query_file = [](const std::string& input, size_t q) {
    const std::string proj = ProjectedOutputPath(input);
    return proj.substr(0, proj.size() - 4) + ".q" + std::to_string(q + 1) +
           ".xml";
  };
  for (const char* budget : {"0", "1"}) {
    SCOPED_TRACE(budget);
    std::string args = "--dtd \"" + fx.dtd_path + "\"";
    for (const char* q : queries) {
      args += " --paths \"" + std::string(q) + "\"";
    }
    CliResult r = RunCli(args + " --batch --threads 4 --max-buffer " +
                             budget + fx.InputArgs(),
                         "ulimit -n 32; ");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    for (size_t i = 0; i < fx.inputs.size(); ++i) {
      for (size_t q = 0; q < 3; ++q) {
        const std::string out = query_file(fx.inputs[i], q);
        auto content = ReadFileToString(out);
        EXPECT_TRUE(content.ok()) << out;
        if (content.ok()) {
          EXPECT_EQ(*content, SerialExpected(fx.docs[i], queries[q])) << out;
        }
        std::remove(out.c_str());
      }
    }
  }
}

TEST(CliIndexTest, IndexBuildThenSeekServesByteIdenticalSlices) {
  // A document large enough for several granularity-64 boundaries.
  std::string big = "<a>";
  for (int i = 0; i < 120; ++i) {
    big += "<b>keep " + std::to_string(i) + "</b><c>drop " +
           std::to_string(i) + "</c>";
  }
  big += "</a>";
  Fixture fx({big});
  std::string idx_path = ::testing::TempDir() + "/smpx_cli_test.idx";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --index-build \"" + idx_path +
                       "\" --index-granularity 64 --threads 2 \"" +
                       fx.inputs[0] + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;

  // The saved index must load and agree with a library-built one; the
  // library index then provides the expected projection offsets.
  auto loaded = index::BoundaryIndex::LoadFromFile(idx_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_FALSE(loaded->entries().empty());
  std::string serial = SerialExpected(big);

  for (size_t i : {size_t{0}, loaded->entries().size() / 2,
                   loaded->entries().size() - 1}) {
    const index::IndexEntry& e = loaded->entries()[i];
    std::string out = ::testing::TempDir() + "/smpx_cli_seek.xml";
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek " +
               std::to_string(e.offset) + " \"" + fx.inputs[0] + "\" \"" +
               out + "\"");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    auto content = ReadFileToString(out);
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, serial.substr(static_cast<size_t>(e.out_offset)))
        << "CLI seek to boundary " << e.offset
        << " is not the serial projection's suffix";
    std::remove(out.c_str());
  }

  // --count limits the emission to whole records.
  {
    const index::IndexEntry& e = loaded->entries()[0];
    std::string out = ::testing::TempDir() + "/smpx_cli_count.xml";
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek " +
               std::to_string(e.offset) + " --count 2 \"" + fx.inputs[0] +
               "\" \"" + out + "\"");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    auto content = ReadFileToString(out);
    ASSERT_TRUE(content.ok());
    uint64_t end = loaded->entries().size() > 2
                       ? loaded->entries()[2].out_offset
                       : serial.size();
    EXPECT_EQ(*content,
              serial.substr(static_cast<size_t>(e.out_offset),
                            static_cast<size_t>(end - e.out_offset)));
    std::remove(out.c_str());
  }

  // A stale index (document changed since indexing) must fail closed.
  {
    std::string tampered = big;
    tampered[tampered.find("keep 7") + 5] = '9';
    ASSERT_TRUE(WriteStringToFile(fx.inputs[0], tampered).ok());
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek 100 \"" +
               fx.inputs[0] + "\"");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("stale"), std::string::npos) << r.err;
  }

  // A truncated index file must fail closed, not serve wrong bytes.
  {
    auto bytes = ReadFileToString(idx_path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(
        WriteStringToFile(idx_path, bytes->substr(0, bytes->size() / 2))
            .ok());
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek 100 \"" +
               fx.inputs[0] + "\"");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("corrupt"), std::string::npos) << r.err;
  }
  std::remove(idx_path.c_str());
}

#endif  // SMPX_CLI_PATH

}  // namespace
}  // namespace smpx
