//===- persist/MemCache.h - In-memory hot artifact tier --------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot tier of the artifact store: a byte-capped LRU map from cache
/// keys to verified record payloads, held in memory by a long-lived
/// process (an analysis-server worker) and layered over the on-disk
/// ArtifactCache. A hit skips both recomputation *and* the disk read +
/// checksum verification — payloads enter the tier only after they passed
/// record verification (on promotion from disk) or came straight from the
/// serializer (on store), so they are served back without re-validation.
///
/// Coherence with the disk tier is structural: keys are content addresses
/// (input fingerprint + config fingerprint + format version), so an entry
/// can never go stale — a changed input or config is a different key. The
/// only invalidation path is noteRestoreFailure() on the owning
/// ArtifactCache, which drops the key from both tiers.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERSIST_MEMCACHE_H
#define TAJ_PERSIST_MEMCACHE_H

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace taj {

class Stats;

namespace persist {

/// Byte-capped LRU cache of verified artifact payloads.
class MemCache {
public:
  /// \p MaxBytes caps the summed payload sizes (0 = uncapped). An entry
  /// larger than the cap by itself is never admitted.
  explicit MemCache(uint64_t MaxBytes = 0) : MaxBytes(MaxBytes) {}

  /// Returns a copy of the payload stored under \p Key, refreshing its
  /// LRU position; nullopt on miss.
  std::optional<std::vector<uint8_t>> get(const std::string &Key);

  /// Inserts (or refreshes) \p Key -> the \p Len bytes at \p Data, then
  /// evicts least-recently-used entries down to the byte cap.
  void put(const std::string &Key, const uint8_t *Data, size_t Len);

  /// Drops \p Key (restore-failure invalidation; no-op when absent).
  void erase(const std::string &Key);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t stores() const { return Stores; }
  uint64_t evictions() const { return Evictions; }
  /// Current summed payload bytes.
  uint64_t bytes() const { return CurBytes; }
  /// Current entry count.
  uint64_t entries() const { return Lru.size(); }

  /// Exports persist.mem_{hit,miss,store,evict} counters.
  void exportStats(Stats &S) const;

private:
  struct Entry {
    std::string Key;
    std::vector<uint8_t> Payload;
  };

  /// Evicts from the LRU tail until CurBytes <= MaxBytes.
  void evictToCap();

  uint64_t MaxBytes;
  std::list<Entry> Lru; ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> Index;
  uint64_t CurBytes = 0;
  uint64_t Hits = 0, Misses = 0, Stores = 0, Evictions = 0;
};

} // namespace persist
} // namespace taj

#endif // TAJ_PERSIST_MEMCACHE_H
