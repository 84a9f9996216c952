// End-to-end tests for the smpx command-line tool. Batch mode: per-input
// output naming (in.xml -> in.proj.xml, in.proj.qN.xml per query in
// multi-query mode), duplicate output names and outputs that are inputs
// (compared by device and inode) refused, document-order
// per-input stats, per-document error isolation with a nonzero exit code,
// the --out concatenation mode's argument-order merge, and batches under a
// tight fd limit. One document: multi-query runs at one and four threads,
// --fused, --query, --tables, stdin to stdout, and the --stats time
// against the process's wall time. Index mode: build, seek and failing
// closed. The binary path is injected by CMake as SMPX_CLI_PATH; expected
// outputs come from the library's serial engine over the same inputs.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/thread_pool.h"
#include "paths/xquery_extract.h"
#include "query/multiquery.h"

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
  std::string out;  ///< stdout
  std::string err;  ///< stderr
};

/// Runs the CLI with `args`, capturing stdout and stderr. `shell_prefix` is
/// prepended inside the shell command (e.g. "ulimit -n 32; " for the
/// fd-limit test); `args` may end in a stdin redirection.
CliResult RunCli(const std::string& args,
                 const std::string& shell_prefix = std::string()) {
  std::string out_file = ::testing::TempDir() + "/smpx_cli_stdout.txt";
  std::string err_file = ::testing::TempDir() + "/smpx_cli_stderr.txt";
  std::string cmd = shell_prefix + "\"" + SMPX_CLI_PATH + "\" " + args +
                    " >\"" + out_file + "\" 2>\"" + err_file + "\"";
  int rc = std::system(cmd.c_str());
  CliResult r;
  r.exit_code = rc == -1 ? -1 : WEXITSTATUS(rc);
  auto out = ReadFileToString(out_file);
  r.out = out.ok() ? *out : std::string();
  auto err = ReadFileToString(err_file);
  r.err = err.ok() ? *err : std::string();
  std::remove(out_file.c_str());
  std::remove(err_file.c_str());
  return r;
}

dtd::Dtd TestDtd() {
  auto dtd = dtd::Dtd::Parse(kDtdText);
  EXPECT_TRUE(dtd.ok());
  return dtd.ok() ? std::move(*dtd) : dtd::Dtd();
}

std::vector<paths::ProjectionPath> ParsePaths(const char* path_list) {
  auto paths = paths::ProjectionPath::ParseList(path_list);
  EXPECT_TRUE(paths.ok());
  return paths.ok() ? *paths : std::vector<paths::ProjectionPath>();
}

/// `doc` projected by `pf` through the library's serial engine.
std::string Project(const Result<core::Prefilter>& pf,
                    const std::string& doc) {
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  if (!pf.ok()) return std::string();
  auto out = pf->RunOnBuffer(doc);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::string();
}

std::string SerialExpected(const std::string& doc,
                           const char* path_list = kPaths) {
  return Project(core::Prefilter::Compile(TestDtd(), ParsePaths(path_list)),
                 doc);
}

/// The file of query q (0-based) in a multi-query run whose output base
/// name `base` ends in .xml: out.xml -> out.q1.xml, ...
std::string QueryFile(const std::string& base, size_t q) {
  return base.substr(0, base.size() - 4) + ".q" + std::to_string(q + 1) +
         ".xml";
}

/// A document of `records` <b>/<c> pairs.
std::string RecordsDoc(int records) {
  std::string doc = "<a>";
  for (int i = 0; i < records; ++i) {
    doc += "<b>payload " + std::to_string(i) + "</b><c>other " +
           std::to_string(i) + "</c>";
  }
  return doc + "</a>";
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
  // Two inputs that name one output file (the same path twice, or in.xml
  // next to in: both project to in.proj.xml) would race on it or overwrite
  // one document's projection; the CLI must refuse, with one query and with
  // several (whose outputs are in.proj.qN.xml).
  Fixture fx({"<a><b>dup</b></a>"});
  const std::string bare =
      fx.inputs[0].substr(0, fx.inputs[0].size() - 4);  // "in" of "in.xml"
  ASSERT_TRUE(WriteStringToFile(bare, fx.docs[0]).ok());
  const std::string one_query = " --paths \"" + std::string(kPaths) + "\"";
  const std::string two_queries = one_query + " --paths \"/a/c#\"";
  struct Case {
    std::string queries;
    std::string second_input;
  };
  for (const Case& c : {Case{one_query, fx.inputs[0]}, Case{one_query, bare},
                        Case{two_queries, fx.inputs[0]},
                        Case{two_queries, bare}}) {
    SCOPED_TRACE(c.queries + " " + c.second_input);
    CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\"" + c.queries +
                         " --batch \"" + fx.inputs[0] + "\" \"" +
                         c.second_input + "\"");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("duplicate"), std::string::npos) << r.err;
  }
  const std::string proj = ProjectedOutputPath(fx.inputs[0]);
  for (size_t q = 0; q < 2; ++q) std::remove(QueryFile(proj, q).c_str());
  std::remove(bare.c_str());
}

TEST(CliBatchTest, OutputsThatAreInputsAreRefused) {
  // Opening an output truncates it. An output that is also an input -- by
  // the same name, by another spelling of it and a hard link, as another
  // input's --batch output, as --index-build's index file, or as the
  // first of two --paths-file files -- would destroy that file (and fault
  // the run reading a mapped document), so the CLI must refuse with exit 1
  // before it opens any output, leaving every input byte-identical.
  Fixture fx({RecordsDoc(4000), RecordsDoc(300)});
  const std::string dir = ::testing::TempDir();
  const std::string& a = fx.inputs[0];
  const std::string& b = fx.inputs[1];
  const std::string a_spelled = dir + "/./smpx_cli_in0.xml";
  const std::string link = dir + "/smpx_cli_in0_link.xml";
  // b's contents as a.xml's --batch output, named as a second input.
  const std::string a_proj = ProjectedOutputPath(a);
  const std::string paths1 = dir + "/smpx_cli_paths1.txt";
  const std::string paths2 = dir + "/smpx_cli_paths2.txt";
  const std::string dtd = "--dtd \"" + fx.dtd_path + "\" ";
  const std::string common = dtd + "--paths \"" + kPaths + "\" ";
  for (const std::string& args :
       {common + "\"" + a + "\" \"" + a + "\"",
        common + "\"" + a_spelled + "\" \"" + link + "\"",
        common + "--batch \"" + a + "\" \"" + a_proj + "\"",
        common + "--batch --out \"" + a + "\" \"" + a + "\" \"" + b + "\"",
        common + "--index-build \"" + a + "\" \"" + a + "\"",
        dtd + "--paths-file \"" + paths1 + "\" --paths-file \"" + paths2 +
            "\" \"" + a + "\" \"" + paths1 + "\""}) {
    SCOPED_TRACE(args);
    // Fresh inputs for every case.
    ASSERT_TRUE(WriteStringToFile(a, fx.docs[0]).ok());
    ASSERT_TRUE(WriteStringToFile(b, fx.docs[1]).ok());
    ASSERT_TRUE(WriteStringToFile(a_proj, fx.docs[1]).ok());
    ASSERT_TRUE(WriteStringToFile(paths1, kPaths).ok());
    ASSERT_TRUE(WriteStringToFile(paths2, kPaths).ok());
    std::remove(link.c_str());
    ASSERT_EQ(::link(a.c_str(), link.c_str()), 0) << link;
    CliResult r = RunCli(args);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("refusing to overwrite"), std::string::npos)
        << r.err;
    for (const auto& [path, content] :
         {std::make_pair(a, fx.docs[0]), std::make_pair(b, fx.docs[1]),
          std::make_pair(a_proj, fx.docs[1]),
          std::make_pair(paths1, std::string(kPaths))}) {
      auto now = ReadFileToString(path);
      ASSERT_TRUE(now.ok()) << path;
      EXPECT_TRUE(*now == content) << path << " changed";
    }
    // Nothing was opened for writing, not even the outputs that are new.
    EXPECT_FALSE(ReadFileToString(ProjectedOutputPath(a_proj)).ok());
  }
  for (const std::string& f :
       {link, ProjectedOutputPath(a_proj), paths1, paths2}) {
    std::remove(f.c_str());
  }
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
        // in.xml -> in.proj.q1.xml, ... (query order, 1-based).
        const std::string out = QueryFile(ProjectedOutputPath(fx.inputs[i]), q);
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

TEST(CliRunTest, MultiQueryDocumentMatchesEachQuerysOwnRun) {
  // One document under three queries, one a duplicate served by the same
  // product component: every out.qN.xml equals that query's own serial
  // run, serially and sharded (with a budget small enough to spill).
  const char* queries[] = {"/a/b#", "/a/c#", "/a/b#"};
  Fixture fx({RecordsDoc(2000)});
  const std::string out = ::testing::TempDir() + "/smpx_cli_mq.xml";
  std::string args = "--dtd \"" + fx.dtd_path + "\"";
  for (const char* q : queries) args += " --paths \"" + std::string(q) + "\"";
  for (const char* run : {"--threads 1", "--threads 4",
                          "--threads 4 --max-buffer 1K"}) {
    SCOPED_TRACE(run);
    CliResult r = RunCli(args + " " + run + " \"" + fx.inputs[0] + "\" \"" +
                         out + "\"");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    for (size_t q = 0; q < 3; ++q) {
      const std::string file = QueryFile(out, q);
      auto content = ReadFileToString(file);
      ASSERT_TRUE(content.ok()) << file;
      EXPECT_EQ(*content, SerialExpected(fx.docs[0], queries[q])) << file;
      std::remove(file.c_str());
    }
  }
}

TEST(CliRunTest, MultiQueryStatsListEveryOutputFileThenTheSummary) {
  // Multi-query --stats prints the per-file line of single-query --batch
  // for every query's file, each with its query's own bytes and matches,
  // then the one summary line with the query and unique-component counts.
  Fixture fx({"<a><b>one</b><c>two</c><b>three</b></a>"});
  const std::string out = ::testing::TempDir() + "/smpx_cli_mq_stats.xml";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path +
                       "\" --paths \"/a/b#\" --paths \"/a/c#\" --paths "
                       "\"/a/b#\" --stats \"" +
                       fx.inputs[0] + "\" \"" + out + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto mq = query::MultiQuery::Compile(
      TestDtd(),
      {ParsePaths("/a/b#"), ParsePaths("/a/c#"), ParsePaths("/a/b#")});
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  std::vector<StringSink> sinks(3);
  std::vector<OutputSink*> ptrs;
  for (StringSink& s : sinks) ptrs.push_back(&s);
  std::vector<core::QueryRunStats> qs;
  ASSERT_TRUE(mq->RunOnBuffer(fx.docs[0], ptrs, &qs).ok());
  std::string expected;
  for (size_t q = 0; q < 3; ++q) {
    const std::string file = QueryFile(out, q);
    expected += fx.inputs[0] + " -> " + file +
                ": input=" + std::to_string(fx.docs[0].size()) +
                " output=" + std::to_string(qs[q].output_bytes) +
                " matches=" + std::to_string(qs[q].matches) + "\n";
    std::remove(file.c_str());
  }
  EXPECT_EQ(r.err.substr(0, expected.size()), expected);
  EXPECT_EQ(r.err.compare(expected.size(), 7, "states="), 0) << r.err;
  EXPECT_NE(r.err.find(" queries=3 unique=2\n"), std::string::npos) << r.err;
}

TEST(CliRunTest, FusedMatchesTheFusedPrefilter) {
  Fixture fx({RecordsDoc(50)});
  const std::string out = ::testing::TempDir() + "/smpx_cli_fused.xml";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path +
                       "\" --paths \"/a/b#\" --paths \"/a/c#\" --fused \"" +
                       fx.inputs[0] + "\" \"" + out + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(out);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content,
            Project(query::MultiQuery::CompileFused(
                        TestDtd(), {ParsePaths("/a/b#"), ParsePaths("/a/c#")}),
                    fx.docs[0]));
  std::remove(out.c_str());
}

TEST(CliRunTest, QueryMatchesItsExtractedPaths) {
  const char query[] = "for $x in /a/b return $x";
  Fixture fx({RecordsDoc(50)});
  // Single quotes keep the shell off "$x".
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --query '" + query +
                       "' \"" + fx.inputs[0] + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.err.find("extracted projection paths:"), std::string::npos)
      << r.err;
  auto extracted = paths::ExtractProjectionPaths(query);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  EXPECT_EQ(r.out, Project(core::Prefilter::Compile(TestDtd(), *extracted),
                           fx.docs[0]));
}

TEST(CliRunTest, TablesPrintsTheCompiledTables) {
  Fixture fx({});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --tables");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto pf = core::Prefilter::Compile(TestDtd(), ParsePaths(kPaths));
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  EXPECT_EQ(r.out, pf->tables().DebugString());
}

TEST(CliRunTest, StdinToStdout) {
  Fixture fx({RecordsDoc(50)});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" <\"" + fx.inputs[0] + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_EQ(r.out, SerialExpected(fx.docs[0]));
}

TEST(CliRunTest, StatsTimeFitsInsideTheProcessWallTime) {
  // --stats time= is compilation plus the run, both inside the process, so
  // it can never exceed the wall time measured around it -- with one query
  // and with two. A timer that keeps running from compilation through the
  // run counts the run twice and reads well above it on a 16 MB document.
  Fixture fx({RecordsDoc(430000)});
  ASSERT_GE(fx.docs[0].size(), size_t{16} << 20);
  const std::string out = ::testing::TempDir() + "/smpx_cli_time.xml";
  for (const char* queries :
       {" --paths \"/a/b#\"", " --paths \"/a/b#\" --paths \"/a/c#\""}) {
    SCOPED_TRACE(queries);
    const auto begin = std::chrono::steady_clock::now();
    CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\"" + queries +
                         " --stats \"" + fx.inputs[0] + "\" \"" + out + "\"");
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
    ASSERT_EQ(r.exit_code, 0) << r.err;
    const size_t at = r.err.find(" time=");
    ASSERT_NE(at, std::string::npos) << r.err;
    const double printed = std::atof(r.err.c_str() + at + 6);
    EXPECT_GT(printed, 0.0) << r.err;
    // time= is printed in milliseconds, rounded.
    EXPECT_LE(printed, wall + 0.0005) << r.err << "wall=" << wall;
    std::remove(out.c_str());
    for (size_t q = 0; q < 2; ++q) std::remove(QueryFile(out, q).c_str());
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
