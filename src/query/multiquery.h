// Multi-query projection: compile N projection-path sets against one
// nonrecursive DTD into a single shared product DFA whose actions carry
// per-query bitmasks (core::MultiQueryInfo), so one pass over a document
// serves the whole query mix. Each query compiles through the same
// analysis and table renderer as a single-query core::Prefilter
// (core::CompileTables, core::FinishTables renders the product too).
// Queries collapse when their canonical path sets are equal
// (query/equivalence.h) or their compiled tables are identical, and every
// original query's output stays byte-identical to an independent
// single-query serial run -- duplicates are routed through FanoutSink,
// never re-executed.
//
// Execution: RunOnBuffer makes one serial pass over an in-memory
// document. The product tables are ordinary RuntimeTables, so every
// src/parallel driver -- parallel::StreamRun (bounded-memory streaming),
// parallel::ShardedRun (speculative sharding) and
// parallel::BatchRunStreaming (per-document batches) -- runs them
// unchanged, taking one sink per unique query; RouteSinks and ExpandStats
// translate between original and unique queries. A fused superset
// projection (one output safe for every query) is available through
// CompileFused.

#ifndef SMPX_QUERY_MULTIQUERY_H_
#define SMPX_QUERY_MULTIQUERY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/prefilter.h"
#include "core/tables.h"
#include "dtd/dtd.h"
#include "paths/projection_path.h"

namespace smpx::query {

/// A compiled multi-query mix: shared product tables plus the
/// original-query -> unique-query routing produced by query collapse.
class MultiQuery {
 public:
  /// Compiles the mix. `opts` reaches every component build and the
  /// product's matchers and jumps; recursive DTDs (allow_recursion) and
  /// map dispatch are rejected, since the product needs interned dispatch
  /// and no component may count nesting.
  static Result<MultiQuery> Compile(
      dtd::Dtd dtd, std::vector<std::vector<paths::ProjectionPath>> queries,
      const core::CompileOptions& opts = {});

  /// Number of original queries (the sink order of every driver).
  int num_queries() const { return static_cast<int>(unique_of_.size()); }
  /// Number of unique queries after collapse (the engine's sink count).
  int num_unique() const { return static_cast<int>(unique_queries_.size()); }
  /// Unique index serving original query `original`.
  int unique_of(int original) const {
    return unique_of_[static_cast<size_t>(original)];
  }
  /// Canonical path set of unique query `u` (without the implicit "/*").
  const std::vector<paths::ProjectionPath>& unique_paths(int u) const {
    return unique_queries_[static_cast<size_t>(u)];
  }

  const core::RuntimeTables& tables() const { return *tables_; }
  std::shared_ptr<const core::RuntimeTables> shared_tables() const {
    return tables_;
  }
  const dtd::Dtd& dtd() const { return *dtd_; }

  /// One serial pass over an in-memory document. `sinks` has one sink per
  /// ORIGINAL query; duplicates of a unique query each receive their own
  /// copy of its bytes. `query_stats` (may be null) gets one entry per
  /// original query.
  Status RunOnBuffer(std::string_view document,
                     const std::vector<OutputSink*>& sinks,
                     std::vector<core::QueryRunStats>* query_stats = nullptr,
                     core::RunStats* stats = nullptr,
                     const core::EngineOptions& opts = {}) const;

  /// Fused superset projection: one ordinary single-query prefilter over
  /// the canonicalized union of every query's paths; no product is built.
  /// Its single output is projection-safe for each query individually
  /// (each query evaluates top-level-equal on it; see
  /// query::CheckProjectionSafety).
  static Result<core::Prefilter> CompileFused(
      dtd::Dtd dtd,
      const std::vector<std::vector<paths::ProjectionPath>>& queries,
      const core::CompileOptions& opts = {});

  /// Routing helper for the src/parallel drivers: maps one sink per
  /// original query to one sink per unique query, fanning duplicates
  /// out. The returned FanoutSinks are owned by `owned`; `unique_sinks`
  /// is in MultiQueryInfo order and valid while `owned` lives.
  void RouteSinks(const std::vector<OutputSink*>& sinks,
                  std::vector<std::unique_ptr<FanoutSink>>* owned,
                  std::vector<OutputSink*>* unique_sinks) const;

  /// Expands per-unique stats (engine order) to per-original stats.
  void ExpandStats(const std::vector<core::QueryRunStats>& unique_stats,
                   std::vector<core::QueryRunStats>* per_original) const;

 private:
  MultiQuery() = default;

  std::shared_ptr<const dtd::Dtd> dtd_;
  std::shared_ptr<const core::RuntimeTables> tables_;
  /// Canonicalized path sets of the unique queries, in engine sink order.
  std::vector<std::vector<paths::ProjectionPath>> unique_queries_;
  std::vector<int> unique_of_;
};

}  // namespace smpx::query

#endif  // SMPX_QUERY_MULTIQUERY_H_
