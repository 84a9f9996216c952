#include "core/prefilter.h"

#include <algorithm>
#include <set>

#include "paths/relevance.h"

namespace smpx::core {

std::vector<paths::ProjectionPath> WithStarPath(
    std::vector<paths::ProjectionPath> paths) {
  paths::ProjectionPath star;
  paths::PathStep step;
  step.axis = paths::PathStep::Axis::kChild;
  step.wildcard = true;
  star.steps.push_back(step);
  if (std::find(paths.begin(), paths.end(), star) == paths.end()) {
    paths.push_back(std::move(star));
  }
  return paths;
}

Result<RuntimeTables> CompileTables(
    const dtd::DtdAutomaton& aut,
    const std::vector<paths::ProjectionPath>& paths, const TableOptions& opts) {
  std::vector<std::string> alphabet;
  for (const dtd::ElementDecl& decl : aut.dtd().elements()) {
    alphabet.push_back(decl.name);
  }
  paths::RelevanceAnalyzer analyzer(paths, std::move(alphabet));

  Selection sel = SelectStates(aut, analyzer);

  // Recursion soundness: an opaque region's interior can only be projected
  // wholesale. If a path could still match strictly inside a region that is
  // neither '#'-covered itself nor inside a copied subtree, data would be
  // lost silently -- reject instead.
  for (size_t i = 0; i < aut.instances().size(); ++i) {
    const dtd::DtdAutomaton::Instance& inst = aut.instance(static_cast<int>(i));
    if (!inst.opaque) continue;
    const paths::BranchRelevance& rel = sel.relevance[i];
    bool preserved = rel.leaf_hash || rel.c2;
    for (int anc = inst.parent; !preserved && anc >= 0;
         anc = aut.instance(anc).parent) {
      preserved = sel.relevance[static_cast<size_t>(anc)].leaf_hash;
    }
    if (preserved) continue;
    // Could any path in P+ match a strict extension of this branch, given
    // the tags that can occur inside?
    std::vector<std::string> branch =
        aut.BranchLabels(dtd::DtdAutomaton::OpenState(static_cast<int>(i)));
    std::set<std::string> inside;
    for (std::string& n : aut.dtd().ReachableFrom(inst.label)) {
      inside.insert(std::move(n));
    }
    const paths::PathSetEvaluator& ev = analyzer.evaluator();
    paths::PathSetEvaluator::State state = ev.Initial();
    for (const std::string& label : branch) ev.Step(label, &state);
    for (size_t pi = 0; pi < analyzer.closure().size(); ++pi) {
      const paths::ProjectionPath& path = analyzer.closure()[pi];
      for (size_t step = 0; step < path.steps.size(); ++step) {
        if (!state.sets[pi][step]) continue;
        const paths::PathStep& ps = path.steps[step];
        if (ps.wildcard || inside.count(ps.name) != 0) {
          return Status::Unsupported(
              "projection path " + path.ToString() +
              " navigates into the recursive content of <" + inst.label +
              ">; recursion is only supported when recursive regions are "
              "skipped or copied wholesale");
        }
      }
    }
  }

  SubgraphAutomaton sub = BuildSubgraph(aut, sel);
  return BuildTables(aut, sel, sub, opts);
}

Result<Prefilter> Prefilter::Compile(dtd::Dtd dtd,
                                     std::vector<paths::ProjectionPath> paths,
                                     const CompileOptions& opts) {
  Prefilter pf;
  pf.dtd_ = std::make_shared<const dtd::Dtd>(std::move(dtd));
  pf.paths_ = WithStarPath(std::move(paths));
  SMPX_ASSIGN_OR_RETURN(
      dtd::DtdAutomaton aut,
      dtd::DtdAutomaton::Build(*pf.dtd_, opts.allow_recursion));
  SMPX_ASSIGN_OR_RETURN(RuntimeTables tables,
                        CompileTables(aut, pf.paths_, opts.tables));
  pf.tables_ = std::make_shared<const RuntimeTables>(std::move(tables));
  return pf;
}

Status Prefilter::Run(const InputSource* in, OutputSink* out,
                      RunStats* stats, const EngineOptions& opts) const {
  return RunEngine(*tables_, in, out, stats, opts);
}

Result<std::string> Prefilter::RunOnBuffer(std::string_view document,
                                           RunStats* stats,
                                           const EngineOptions& opts) const {
  const MemorySource in(document);
  StringSink sink;
  SMPX_RETURN_IF_ERROR(RunEngine(*tables_, &in, &sink, stats, opts));
  return sink.TakeString();
}

}  // namespace smpx::core
