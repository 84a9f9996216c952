// Internal to src/parallel: the one-output-per-query contract every run
// driver (StreamRun, ShardedRun, the batch drivers and the speculative
// resolver) shares. A driver writes one sink per unique query of
// multi-query product tables and exactly one for single-query tables, and
// builds its sessions here so the constructor choice lives in one place.

#ifndef SMPX_PARALLEL_SESSION_H_
#define SMPX_PARALLEL_SESSION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/tables.h"

namespace smpx::parallel {

/// Number of outputs a run over `tables` writes: the unique query count of
/// multi-query product tables, 1 for single-query tables.
inline size_t QueryCount(const core::RuntimeTables& tables) {
  return tables.multi != nullptr
             ? static_cast<size_t>(tables.multi->num_queries)
             : 1;
}

/// kInvalidArgument unless `sinks` == QueryCount(tables).
inline Status CheckSinkCount(const core::RuntimeTables& tables,
                             size_t sinks) {
  if (sinks == QueryCount(tables)) return Status::Ok();
  return Status::InvalidArgument(
      "run needs one sink per unique query (" +
      std::to_string(QueryCount(tables)) + "), got " + std::to_string(sinks));
}

/// The session every driver runs: the per-query-sink constructor on
/// multi-query product tables, the single-sink one (over `sinks[0]`)
/// otherwise. `sinks` must pass CheckSinkCount; `query_stats` is only
/// filled on product tables.
inline std::unique_ptr<core::PrefilterSession> NewSession(
    const core::RuntimeTables& tables, std::vector<OutputSink*> sinks,
    std::vector<core::QueryRunStats>* query_stats, core::RunStats* stats,
    const core::EngineOptions& opts,
    const core::SessionCheckpoint* start = nullptr) {
  if (tables.multi != nullptr) {
    return std::make_unique<core::PrefilterSession>(
        tables, std::move(sinks), query_stats, stats, opts, start);
  }
  return std::make_unique<core::PrefilterSession>(tables, sinks[0], stats,
                                                  opts, start);
}

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_SESSION_H_
