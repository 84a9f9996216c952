// Public facade of the library: compile a (nonrecursive DTD, projection
// paths) pair into runtime tables once, then prefilter any number of
// documents valid w.r.t. that DTD. This reproduces the paper's SMP
// prototype ("takes the projection paths and a nonrecursive DTD as input
// and performs static analysis").
//
// Typical use:
//
//   auto dtd   = smpx::dtd::Dtd::Parse(dtd_text);
//   auto paths = smpx::paths::ProjectionPath::ParseList("/site//item# /*");
//   auto pf    = smpx::core::Prefilter::Compile(std::move(*dtd), *paths);
//   smpx::MemoryInputStream in(document);
//   smpx::StringSink out;
//   smpx::core::RunStats stats;
//   pf->Run(&in, &out, &stats);

#ifndef SMPX_CORE_PREFILTER_H_
#define SMPX_CORE_PREFILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/tables.h"
#include "dtd/dtd.h"
#include "dtd/dtd_automaton.h"
#include "paths/projection_path.h"

namespace smpx::core {

/// Static-analysis options (ablation hooks included), for one query
/// (Prefilter::Compile) or a mix (query::MultiQuery::Compile, which
/// rejects allow_recursion and use_map_dispatch).
struct CompileOptions {
  TableOptions tables;
  /// Accept recursive DTDs by treating recursive elements as *opaque
  /// regions*: their interiors are never navigated; the runtime tunnels
  /// over them by balancing open/close tags (the extension the paper
  /// sketches in Section II). Compilation still fails with kUnsupported if
  /// a projection path would have to select nodes *inside* such a region
  /// that is not wholly copied -- that data cannot be projected soundly
  /// without unfolding the recursion.
  bool allow_recursion = false;
};

/// `paths` plus the default path "/*" when absent: it preserves the
/// top-level node so the output is well-formed (Section III: "we extract
/// the path /* by default").
std::vector<paths::ProjectionPath> WithStarPath(
    std::vector<paths::ProjectionPath> paths);

/// The static analysis of Section IV over a built DTD-automaton: relevance
/// selection, the recursion-soundness check (kUnsupported when a path
/// navigates into an opaque region that is not copied wholesale), the
/// subgraph automaton and BuildTables. `paths` must already carry "/*"
/// (see WithStarPath). Prefilter::Compile runs it once per query,
/// query::MultiQuery::Compile once per component of a mix.
Result<RuntimeTables> CompileTables(
    const dtd::DtdAutomaton& aut,
    const std::vector<paths::ProjectionPath>& paths, const TableOptions& opts);

class Prefilter {
 public:
  /// Runs the full static analysis of Section IV. Fails with kUnsupported
  /// for recursive DTDs / ANY content, kInvalidArgument for inconsistent
  /// inputs. The default projection path "/*" (top-level node, Section III)
  /// is added automatically when absent.
  static Result<Prefilter> Compile(dtd::Dtd dtd,
                                   std::vector<paths::ProjectionPath> paths,
                                   const CompileOptions& opts = {});

  /// Prefilters one document from `in` into `out`.
  Status Run(InputStream* in, OutputSink* out, RunStats* stats = nullptr,
             const EngineOptions& opts = {}) const;

  /// Convenience: whole-buffer in, string out.
  Result<std::string> RunOnBuffer(std::string_view document,
                                  RunStats* stats = nullptr,
                                  const EngineOptions& opts = {}) const;

  /// The compiled tables (A, V, J, T), for inspection and reports.
  const RuntimeTables& tables() const { return *tables_; }
  /// True when the engine will dispatch through the interned fast path
  /// (default; false under TableOptions::use_map_dispatch).
  bool interned_dispatch() const { return tables_->interned_dispatch; }
  /// Number of runtime-DFA states (paper Table I "States").
  size_t num_states() const { return tables_->states.size(); }
  const dtd::Dtd& dtd() const { return *dtd_; }
  const std::vector<paths::ProjectionPath>& paths() const { return paths_; }

 private:
  Prefilter() = default;

  // shared_ptr so Prefilter stays cheaply movable/copyable as a handle.
  std::shared_ptr<const dtd::Dtd> dtd_;
  std::shared_ptr<const RuntimeTables> tables_;
  std::vector<paths::ProjectionPath> paths_;
};

}  // namespace smpx::core

#endif  // SMPX_CORE_PREFILTER_H_
