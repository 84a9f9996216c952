// The paper's correctness notions, executable:
//  - top-level equality of result lists (Definition 1),
//  - projection safety of a projected document w.r.t. a path set
//    (Definition 2): every projection path evaluates top-level-equal on the
//    original and the projected document.
// This is the oracle behind the property tests and the differential tests
// between the prefilter and the tokenizing projector. Also here: the
// canonical form of a path set, the syntactic tier of multi-query collapse
// (query::MultiQuery collapses the rest on compiled-table identity).

#ifndef SMPX_QUERY_EQUIVALENCE_H_
#define SMPX_QUERY_EQUIVALENCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "paths/projection_path.h"
#include "query/xpath.h"
#include "xml/dom.h"

namespace smpx::query {

/// One element of an XPath evaluation result list: either a string (text
/// node value) or an element subtree identified by its root label.
struct ResultItem {
  bool is_text = false;
  std::string text;        ///< text nodes: the value
  std::string root_label;  ///< element nodes: the root label
};

/// Evaluates a projection path (interpreting '#' as an extra
/// descendant-or-self step, as Definition 2 prescribes) and returns the
/// result list in Definition 1 form.
std::vector<ResultItem> EvaluateForEquality(const paths::ProjectionPath& path,
                                            const xml::Document& doc);

/// Definition 1: same length; elementwise equal strings or equal root
/// labels.
bool TopLevelEqual(const std::vector<ResultItem>& a,
                   const std::vector<ResultItem>& b);

/// Verdict of a projection-safety check.
struct SafetyReport {
  bool safe = true;
  std::string first_violation;  ///< human-readable mismatch description
};

/// Definition 2 instantiated on two concrete documents: checks that every
/// path in `paths` evaluates top-level-equal on `original` and `projected`.
Result<SafetyReport> CheckProjectionSafety(
    std::string_view original, std::string_view projected,
    const std::vector<paths::ProjectionPath>& paths);

/// Converts a projection path into the XPath used for safety evaluation.
XPath ProjectionPathToXPath(const paths::ProjectionPath& path);

/// Canonical form of one query's path set for multi-query collapse:
/// sorted and deduplicated by ToString(). Queries with equal canonical
/// forms are syntactically identical (the cheap tier of collapse).
std::vector<paths::ProjectionPath> CanonicalizePathSet(
    std::vector<paths::ProjectionPath> paths);

}  // namespace smpx::query

#endif  // SMPX_QUERY_EQUIVALENCE_H_
