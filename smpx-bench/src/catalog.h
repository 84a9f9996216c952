// The benchmark's frozen query sets: the paper's XMark (XM1-XM20) and
// MEDLINE (M1-M5) projection-path catalog, the 39-query multi-tenant
// selective mix, and the paths the sharded and serve workloads project.
// They are copies of bench/bench_util.cc and bench/multiquery_scaling.cc
// so that the benchmark's inputs stay fixed while those files evolve.

#ifndef SMPX_BENCH_CATALOG_H_
#define SMPX_BENCH_CATALOG_H_

#include <string>
#include <vector>

namespace smpxbench {

struct CatalogQuery {
  const char* id;
  bool medline;  ///< MEDLINE query (else XMark)
  const char* paths;
};

/// XM1-XM14, XM17-XM20 and M1-M5 (paper Tables I and II).
const std::vector<CatalogQuery>& Catalog();

/// Selective leaf projections over the XMark DTD: six regions x five item
/// fields, person contact and address fields, category names.
std::vector<std::string> MultiTenantMix();

/// M5-style journal-info projection (sharded MEDLINE document, serve).
extern const char* const kMedlinePaths;
/// People and open-auction projection (sharded XMark document, batch).
extern const char* const kXmarkPaths;

}  // namespace smpxbench

#endif  // SMPX_BENCH_CATALOG_H_
