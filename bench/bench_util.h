// Shared infrastructure for the paper-reproduction benchmark binaries:
// the query workload catalog (XMark XM1-XM20, MEDLINE M1-M5 with curated
// projection paths and XPath approximations), dataset caching,
// paper-style table formatting, and the output-file comparison of the CLI
// gates.
//
// Environment knobs:
//   SMPX_SCALE_MB  dataset size in MB (default 24; the paper used 5 GB /
//                  656 MB -- all reported ratios are scale-free and the
//                  paper itself measured deviations < 1% across sizes)
//   SMPX_CSV=1     additionally emit machine-readable CSV rows
//   SMPX_JSON=1    additionally write BENCH_<tag>.json (header + rows) to
//                  the working directory, or to $SMPX_JSON when it names a
//                  directory -- lets CI track the perf trajectory

#ifndef SMPX_BENCH_BENCH_UTIL_H_
#define SMPX_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dtd/dtd.h"
#include "paths/projection_path.h"

namespace smpx::bench {

/// One benchmark query: id, human description, projection paths (space
/// separated), and an XPath approximation used by the query-engine
/// substitutes (empty when not applicable).
struct Workload {
  const char* id;
  const char* projection_paths;
  const char* xpath;
  /// Paper-reported reference values for the table columns (negative when
  /// the paper does not report the value); used for the "paper=" columns.
  double paper_char_comp;   // % of characters inspected
  double paper_avg_shift;   // characters
  int paper_states;         // runtime-DFA states
};

/// XMark queries XM1-XM14, XM17-XM20 (Table I). Projection paths follow the
/// path-extraction results of Marian & Simeon [5] for the XMark queries, as
/// the paper prescribes (Example 4 spells out XM13).
const std::vector<Workload>& XmarkWorkloads();

/// MEDLINE queries M1-M5 (Table II).
const std::vector<Workload>& MedlineWorkloads();

/// Protein Sequence workloads (companion-website results [27]).
const std::vector<Workload>& ProteinWorkloads();

/// Dataset size from SMPX_SCALE_MB (default 24 MB).
uint64_t ScaleBytes();

/// True when SMPX_CSV=1.
bool CsvEnabled();

/// Non-empty when SMPX_JSON is set: the directory BENCH_*.json files go to
/// ("." when SMPX_JSON=1).
std::string JsonOutputDir();

/// Generates (and memoizes on disk under build dir) a dataset:
/// kind is "xmark", "medline", or "protein".
const std::string& Dataset(const std::string& kind, uint64_t bytes);

/// Parses projection paths, aborting on error (workloads are static).
std::vector<paths::ProjectionPath> MustPaths(const char* list);

/// True when files `a` and `b` hold the same bytes. Both are read through
/// FileSource in 1 MiB pieces, so a multi-hundred-MB reference output is
/// never held in memory; an unreadable file compares unequal.
bool FilesIdentical(const std::string& a, const std::string& b);

/// Formatting helpers.
std::string Pct(double v);
std::string Mb(double bytes);
std::string Secs(double s);

/// Prints an aligned table: header row then data rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);
  void AddRow(std::vector<std::string> row);
  /// Writes the table to stdout; with CsvEnabled() also CSV lines prefixed
  /// by `csv_tag`.
  void Print(const std::string& csv_tag) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace smpx::bench

#endif  // SMPX_BENCH_BENCH_UTIL_H_
