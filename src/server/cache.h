// smpxd's keyed LRU caches: compiled runtime tables and per-document
// boundary indexes, both preloaded once and shared across connections.
//
// Two maps, two key shapes:
//   tables  : (Hash64 of DTD text, Hash64 of path-list text) -> Prefilter
//   indexes : (tables fingerprint, document path) -> mmap + BoundaryIndex
//
// Indexes are keyed by the *compiled* fingerprint, not the source texts:
// two textually different DTDs compiling to identical tables share index
// entries, and a recompiled table set can never be paired with a stale
// index (BoundaryIndex::Matches re-verifies the triple at fill time --
// fail closed, same contract as offline index files). Each index hit
// re-stats the file; a changed size or mtime evicts and rebuilds, so a
// rewritten document is never served through yesterday's checkpoints.
//
// Values are shared_ptr snapshots: eviction drops the cache's reference
// while in-flight requests keep theirs, so no lock is held across an
// engine run.

#ifndef SMPX_SERVER_CACHE_H_
#define SMPX_SERVER_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/io.h"
#include "common/result.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"

namespace smpx::server {

/// An mmapped document plus its boundary index, verified as a matching
/// pair at construction. Immutable after fill; safe to share across
/// connection threads.
struct IndexedDoc {
  std::unique_ptr<MmapSource> source;
  index::BoundaryIndex index;
  uint64_t file_size = 0;
  int64_t file_mtime_ns = 0;

  std::string_view doc() const { return source->Contiguous(); }
};

struct CacheOptions {
  size_t max_tables = 16;
  size_t max_indexes = 16;
  /// Granularity for indexes built on a miss (1 = every record boundary,
  /// the pagination-friendly default for server workloads).
  uint64_t index_granularity = 1;
  /// Inert: index builds are one serial streaming pass. Kept only because
  /// smpx-bench/src/serve.cc still sets it.
  int build_threads = 0;
};

class Cache {
 public:
  explicit Cache(const CacheOptions& opts = {});

  /// Returns the compiled prefilter for (dtd_text, paths_text), compiling
  /// and inserting on a miss. Compile failures are not cached: a
  /// malformed query costs its caller, not the next one.
  Result<std::shared_ptr<const core::Prefilter>> GetTables(
      const std::string& dtd_text, const std::string& paths_text);

  /// Returns the mmapped document + boundary index for `doc_path` under
  /// `pf`'s tables, mapping and indexing on a miss. Hits re-stat the file
  /// and rebuild if it changed underneath the cache.
  Result<std::shared_ptr<const IndexedDoc>> GetIndexedDoc(
      const core::Prefilter& pf, const std::string& doc_path);

  /// Entry counts, for tests and the daemon's status line.
  size_t tables_count() const;
  size_t indexes_count() const;

 private:
  struct TablesKey {
    uint64_t dtd_hash;
    uint64_t paths_hash;
    bool operator<(const TablesKey& o) const {
      return std::tie(dtd_hash, paths_hash) < std::tie(o.dtd_hash, o.paths_hash);
    }
  };
  struct IndexKey {
    uint64_t tables_fingerprint;
    std::string doc_path;
    bool operator<(const IndexKey& o) const {
      return std::tie(tables_fingerprint, doc_path) <
             std::tie(o.tables_fingerprint, o.doc_path);
    }
  };

  // One LRU shape for both maps: a recency list of keys, map values carry
  // the list iterator.
  template <typename K, typename V>
  struct Lru {
    struct Slot {
      std::shared_ptr<const V> value;
      typename std::list<K>::iterator where;
    };
    std::map<K, Slot> map;
    std::list<K> order;  // front = most recent

    std::shared_ptr<const V> Get(const K& key) {
      auto it = map.find(key);
      if (it == map.end()) return nullptr;
      order.splice(order.begin(), order, it->second.where);
      return it->second.value;
    }
    void Put(const K& key, std::shared_ptr<const V> value, size_t cap) {
      auto it = map.find(key);
      if (it != map.end()) {
        it->second.value = std::move(value);
        order.splice(order.begin(), order, it->second.where);
        return;
      }
      order.push_front(key);
      map.emplace(key, Slot{std::move(value), order.begin()});
      while (map.size() > cap && !order.empty()) {
        map.erase(order.back());
        order.pop_back();
      }
    }
    void Erase(const K& key) {
      auto it = map.find(key);
      if (it == map.end()) return;
      order.erase(it->second.where);
      map.erase(it);
    }
  };

  CacheOptions opts_;
  // Serializes index builds: a miss observed by several connections costs
  // one build, not N.
  std::mutex build_mu_;
  mutable std::mutex mu_;
  Lru<TablesKey, core::Prefilter> tables_;
  Lru<IndexKey, IndexedDoc> indexes_;
};

}  // namespace smpx::server

#endif  // SMPX_SERVER_CACHE_H_
