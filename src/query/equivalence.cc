#include "query/equivalence.h"

#include <algorithm>
#include <utility>

namespace smpx::query {

XPath ProjectionPathToXPath(const paths::ProjectionPath& path) {
  XPath xp;
  xp.absolute = true;
  for (const paths::PathStep& step : path.steps) {
    XPathStep xs;
    xs.axis = step.axis == paths::PathStep::Axis::kDescendant
                  ? XPathStep::Axis::kDescendant
                  : XPathStep::Axis::kChild;
    if (step.wildcard) {
      xs.test = XPathStep::Test::kAny;
    } else {
      xs.test = XPathStep::Test::kName;
      xs.name = step.name;
    }
    xp.steps.push_back(std::move(xs));
  }
  return xp;
}

namespace {

void CollectSubtree(const xml::Document& doc, xml::NodeId id,
                    std::vector<xml::NodeId>* out) {
  out->push_back(id);
  const xml::DomNode& n = doc.node(id);
  for (xml::NodeId c : n.children) CollectSubtree(doc, c, out);
}

ResultItem ToItem(const xml::Document& doc, xml::NodeId id) {
  ResultItem item;
  const xml::DomNode& n = doc.node(id);
  if (n.kind == xml::DomNode::Kind::kText) {
    item.is_text = true;
    item.text = n.text;
  } else {
    item.root_label = n.name;
  }
  return item;
}

}  // namespace

std::vector<ResultItem> EvaluateForEquality(const paths::ProjectionPath& path,
                                            const xml::Document& doc) {
  std::vector<xml::NodeId> base = Evaluate(ProjectionPathToXPath(path), doc);
  std::vector<xml::NodeId> nodes;
  if (path.descendants) {
    // '#' reads as descendant-or-self::node() (Definition 2).
    for (xml::NodeId id : base) CollectSubtree(doc, id, &nodes);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  } else {
    nodes = std::move(base);
  }
  std::vector<ResultItem> items;
  items.reserve(nodes.size());
  for (xml::NodeId id : nodes) items.push_back(ToItem(doc, id));
  return items;
}

bool TopLevelEqual(const std::vector<ResultItem>& a,
                   const std::vector<ResultItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_text != b[i].is_text) return false;
    if (a[i].is_text) {
      if (a[i].text != b[i].text) return false;
    } else {
      if (a[i].root_label != b[i].root_label) return false;
    }
  }
  return true;
}

Result<SafetyReport> CheckProjectionSafety(
    std::string_view original, std::string_view projected,
    const std::vector<paths::ProjectionPath>& paths) {
  SMPX_ASSIGN_OR_RETURN(xml::Document odoc, xml::ParseDocument(original));
  SMPX_ASSIGN_OR_RETURN(xml::Document pdoc, xml::ParseDocument(projected));
  SafetyReport report;
  for (const paths::ProjectionPath& path : paths) {
    std::vector<ResultItem> oitems = EvaluateForEquality(path, odoc);
    std::vector<ResultItem> pitems = EvaluateForEquality(path, pdoc);
    if (!TopLevelEqual(oitems, pitems)) {
      report.safe = false;
      report.first_violation =
          "path " + path.ToString() + ": original yields " +
          std::to_string(oitems.size()) + " item(s), projection yields " +
          std::to_string(pitems.size());
      return report;
    }
  }
  return report;
}

std::vector<paths::ProjectionPath> CanonicalizePathSet(
    std::vector<paths::ProjectionPath> paths) {
  std::sort(paths.begin(), paths.end(),
            [](const paths::ProjectionPath& x, const paths::ProjectionPath& y) {
              return x.ToString() < y.ToString();
            });
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

}  // namespace smpx::query
