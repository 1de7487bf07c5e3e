//===- persist/Cache.h - Content-addressed artifact cache ------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk content-addressed cache of analysis artifacts. Entries are keyed
/// by a fingerprint of (input file bytes, the AnalysisConfig fields that
/// affect the phase, format version) and stored per phase — "ir", "pts",
/// "sdg" — so a config change that only affects slicing still reuses the
/// points-to/SDG prefix.
///
/// Durability contract: the cache is strictly an accelerator. Every load
/// verifies the record header and checksum; any read error, version or
/// checksum mismatch, or structural restore failure is counted
/// (persist.corrupt), logged to stderr, the entry deleted, and the caller
/// recomputes cold. A cache failure never changes results or exit codes.
///
/// Capacity: stores go through a temp-file + rename (the temp name is
/// pid-unique, so concurrent supervised workers sharing one directory
/// never interleave writes into the same temp file), then the cache
/// LRU-evicts (by file mtime, ties broken by name) until the directory is
/// under the configured byte cap. Loads touch the entry's mtime.
///
/// Concurrent workers: eviction never removes an entry whose mtime is
/// inside the configured grace window — a recently stored or loaded
/// entry is exactly the one another process may be about to read, and a
/// fresh mtime is the only cross-process signal we have. Skipped entries
/// are counted (persist.evict_skipped) and the directory may transiently
/// exceed the cap by the skipped bytes. Stale temp files older than the
/// grace window (a crashed worker's leftovers) are swept during eviction.
///
/// Hot tier: sized when the cache is constructed (0 = none), an in-memory
/// byte-capped LRU map from keys to verified payloads. It is probed before
/// the disk on every load (a hit skips the read and the checksum
/// re-verify), is filled on every store, and is promoted into on every
/// disk hit. Keys are content addresses, so the two tiers cannot disagree;
/// the only invalidation path, noteRestoreFailure(), drops both. An entry
/// larger than the tier's cap is never admitted. With an empty directory
/// the cache runs mem-only (loads/stores touch just the tier): the
/// analysis-server worker configuration when no --cache-dir is given.
///
/// Counters: hit, miss, store, evict, evict_skipped, corrupt,
/// version_miss, touch_failed, and mem_{hit,store} with a hot tier. A mem
/// hit counts as a persist.hit too, so a run sees its warm loads whichever
/// tier served them. A run reports its share as persist.* deltas:
/// counters() before it, exportDeltas() after it. Summing the deltas of N
/// runs over one cache reproduces the cache's lifetime totals.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERSIST_CACHE_H
#define TAJ_PERSIST_CACHE_H

#include "persist/Serialize.h"

#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace taj {

class ClassHierarchy;
class Stats;

namespace verify {
class Violations;
}

namespace persist {

/// A verified record payload returned by ArtifactCache::load. Owns the raw
/// record bytes and exposes the payload window without copying it (the
/// header prefix is skipped in place).
class LoadedPayload {
public:
  LoadedPayload(std::vector<uint8_t> Record, size_t Offset, size_t Len)
      : Record(std::move(Record)), Offset(Offset), Len(Len) {}

  const uint8_t *data() const { return Record.data() + Offset; }
  size_t size() const { return Len; }

private:
  std::vector<uint8_t> Record;
  size_t Offset;
  size_t Len;
};

/// The cache's cumulative counters (see the file comment).
struct CacheCounters {
  uint64_t Hit = 0, Miss = 0, Store = 0, Evict = 0, EvictSkipped = 0,
           Corrupt = 0, VersionMiss = 0, TouchFailed = 0, MemHit = 0,
           MemStore = 0;
};

/// One artifact cache: an on-disk tier rooted at a directory plus an
/// optional in-memory hot tier.
class ArtifactCache {
public:
  /// Opens (creating if needed) the cache at \p Dir. \p MaxBytes caps the
  /// total size of stored entries (0 = uncapped). \p EvictGraceMs is the
  /// concurrent-reader grace window: eviction skips entries touched more
  /// recently than this (0 = none; supervised batch workers default it
  /// on). If the directory cannot be created the disk tier is disabled:
  /// loads miss, stores are dropped. An empty \p Dir silently disables the
  /// disk tier. \p HotMaxBytes caps the hot tier's summed payloads (0 = no
  /// hot tier; UINT64_MAX = uncapped).
  explicit ArtifactCache(std::string Dir, uint64_t MaxBytes = 0,
                         uint64_t EvictGraceMs = 0, uint64_t HotMaxBytes = 0);

  /// True when any tier can serve loads (disk usable or a hot tier).
  bool enabled() const { return Enabled || HotMaxBytes != 0; }
  const std::string &dir() const { return Dir; }

  /// Composes the content address for one phase entry:
  /// "<phase>-<hex16(fnv(input fp | config fp | format version))>".
  static std::string makeKey(const char *Phase, const std::string &InputFp,
                             const std::string &ConfigFp);

  /// Loads the record payload stored under \p Key after verifying the
  /// record header (magic, version, kind, size, checksum). Returns nullopt
  /// on miss or on any verification failure (counted, logged, entry
  /// deleted). A hit refreshes the entry's LRU position.
  std::optional<LoadedPayload> load(const std::string &Key, ArtifactKind Kind);

  /// Loads \p Key and hands its payload to \p Restore (bool(Reader &)).
  /// True when the artifact was restored. A payload that fails to restore
  /// goes through noteRestoreFailure(); \p Restore itself must leave its
  /// target pristine for the cold rebuild the caller then runs.
  template <class RestoreFn>
  bool restore(const std::string &Key, ArtifactKind Kind, RestoreFn Restore) {
    std::optional<LoadedPayload> Payload = load(Key, Kind);
    if (!Payload)
      return false;
    Reader R(Payload->data(), Payload->size());
    if (Restore(R))
      return true;
    noteRestoreFailure(Key);
    return false;
  }

  /// Stores \p Payload under \p Key (atomic temp-file + rename), then
  /// evicts least-recently-used entries down to the byte cap.
  void store(const std::string &Key, ArtifactKind Kind,
             const std::vector<uint8_t> &Payload);

  /// The one invalidation path: \p Key passed record verification but its
  /// artifact is bad. Counted as corrupt, logged, and dropped from both
  /// tiers. \p Rejecter is the violation sink of a --verify=full checker
  /// that rejected the restored artifact; it counts the rejection
  /// (persist.verify_rejected).
  void noteRestoreFailure(const std::string &Key,
                          verify::Violations *Rejecter = nullptr);

  const CacheCounters &counters() const { return N; }
  /// Adds the persist.* counters' growth since \p Since to \p S:
  /// mem_{hit,store} with a hot tier, the others always.
  void exportDeltas(const CacheCounters &Since, Stats &S) const;

  uint64_t hits() const { return N.Hit; }
  uint64_t misses() const { return N.Miss; }
  uint64_t stores() const { return N.Store; }
  /// The hot tier's summed payload bytes and entry count.
  uint64_t hotBytes() const { return HotBytes; }
  size_t hotEntries() const { return Hot.size(); }

private:
  struct HotEntry {
    std::string Key;
    std::vector<uint8_t> Payload;
  };

  std::string pathFor(const std::string &Key) const;
  void evictToCap();
  /// Inserts (or replaces) \p Key in the hot tier, then evicts from its
  /// LRU tail down to the cap.
  void hotPut(const std::string &Key, const uint8_t *Data, size_t Len);

  std::string Dir;
  uint64_t MaxBytes;
  uint64_t EvictGraceMs;
  bool Enabled = false;
  CacheCounters N;
  uint64_t HotMaxBytes;
  std::list<HotEntry> Hot; ///< front = most recently used
  std::unordered_map<std::string, std::list<HotEntry>::iterator> HotIndex;
  uint64_t HotBytes = 0;
};

/// The SDG phase bundle a slicer needs: the graph, the heap graph it was
/// restored/built against, and (unless the CS channel budget tripped) the
/// materialized heap edges.
struct SdgArtifacts {
  std::unique_ptr<SDG> G;
  std::unique_ptr<HeapGraph> HG;
  std::unique_ptr<HeapEdges> HE;
  bool FromCache = false;
};

/// Phase-boundary load-or-compute hook shared by the three slicers: when
/// \p Cache holds a valid entry for \p Key, restores the SDG + heap edges;
/// otherwise builds them cold (byte-identical to the uncached path) and —
/// if the build completed without a governance stop — stores the result.
/// HE is null exactly when the CS channel budget was exceeded.
SdgArtifacts loadOrBuildSdg(const Program &P, const ClassHierarchy &CHA,
                            const PointsToSolver &Solver, const SDGOptions &SO,
                            uint32_t NestedDepth, ArtifactCache *Cache,
                            const std::string &Key);

} // namespace persist
} // namespace taj

#endif // TAJ_PERSIST_CACHE_H
