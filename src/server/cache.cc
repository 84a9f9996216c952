#include "server/cache.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

#include "common/hash.h"
#include "dtd/dtd.h"
#include "paths/projection_path.h"

namespace smpx::server {
namespace {

// Size + mtime snapshot for the staleness recheck. Unavailable platforms
// report zeros, degrading to cache-forever (the mmap itself still pins a
// consistent byte view on POSIX).
void StatFile(const std::string& path, uint64_t* size, int64_t* mtime_ns) {
  *size = 0;
  *mtime_ns = 0;
#if defined(__unix__) || defined(__APPLE__)
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    *size = static_cast<uint64_t>(st.st_size);
#if defined(__APPLE__)
    *mtime_ns = static_cast<int64_t>(st.st_mtimespec.tv_sec) * 1000000000 +
                st.st_mtimespec.tv_nsec;
#else
    *mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                st.st_mtim.tv_nsec;
#endif
  }
#else
  (void)path;
#endif
}

}  // namespace

Cache::Cache(const CacheOptions& opts) : opts_(opts) {}

Result<std::shared_ptr<const core::Prefilter>> Cache::GetTables(
    const std::string& dtd_text, const std::string& paths_text) {
  TablesKey key{Hash64(dtd_text), Hash64(paths_text)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = tables_.Get(key)) return hit;
  }
  auto dtd = dtd::Dtd::Parse(dtd_text);
  if (!dtd.ok()) return dtd.status();
  auto paths = paths::ProjectionPath::ParseList(paths_text);
  if (!paths.ok()) return paths.status();
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*paths));
  if (!pf.ok()) return pf.status();
  auto value = std::make_shared<const core::Prefilter>(std::move(*pf));
  std::lock_guard<std::mutex> lock(mu_);
  tables_.Put(key, value, opts_.max_tables);
  return value;
}

Result<std::shared_ptr<const IndexedDoc>> Cache::GetIndexedDoc(
    const core::Prefilter& pf, const std::string& doc_path) {
  IndexKey key{pf.tables().Fingerprint(), doc_path};
  uint64_t size = 0;
  int64_t mtime_ns = 0;
  StatFile(doc_path, &size, &mtime_ns);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = indexes_.Get(key)) {
      if (hit->file_size == size && hit->file_mtime_ns == mtime_ns) {
        return hit;
      }
      indexes_.Erase(key);  // changed underneath us: rebuild below
    }
  }

  std::lock_guard<std::mutex> build_lock(build_mu_);
  {
    // A peer may have rebuilt while we waited for the build lock.
    std::lock_guard<std::mutex> lock(mu_);
    if (auto hit = indexes_.Get(key)) {
      if (hit->file_size == size && hit->file_mtime_ns == mtime_ns) {
        return hit;
      }
      indexes_.Erase(key);
    }
  }
  auto entry = std::make_shared<IndexedDoc>();
  entry->file_size = size;
  entry->file_mtime_ns = mtime_ns;
  auto src = MmapSource::Open(doc_path);
  if (!src.ok()) return src.status();
  entry->source = std::move(*src);
  index::BoundaryIndexOptions bopts;
  bopts.granularity_bytes = opts_.index_granularity;
  auto idx = index::BoundaryIndex::Build(pf.tables(), *entry->source, bopts);
  if (!idx.ok()) return idx.status();
  entry->index = std::move(*idx);
  // Fail-closed sanity on the freshly built pair; catches a document
  // rewritten between the stat and the map.
  Status match = entry->index.Matches(entry->doc(), pf.tables());
  if (!match.ok()) return match;

  std::shared_ptr<const IndexedDoc> value = std::move(entry);
  std::lock_guard<std::mutex> lock(mu_);
  indexes_.Put(key, value, opts_.max_indexes);
  return value;
}

size_t Cache::tables_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.map.size();
}

size_t Cache::indexes_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return indexes_.map.size();
}

}  // namespace smpx::server
