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
/// Hot tier: a MemCache attached via attachMemTier() is probed before the
/// disk on every load (a hit skips the read and the checksum re-verify),
/// is filled on every store, and is promoted into on every disk hit. Keys
/// are content addresses, so the two tiers cannot disagree; the only
/// invalidation path, noteRestoreFailure(), drops both. With an empty
/// directory the cache runs mem-only (loads/stores touch just the tier) —
/// the analysis-server worker configuration when no --cache-dir is given.
///
/// Counters (exported into Stats under persist.*): hit, miss, store,
/// evict, evict_skipped, corrupt, touch_failed, and mem_{hit,miss,store,
/// evict} when a hot tier is attached. A mem hit counts as a persist.hit
/// too — callers windowing hit deltas see warm loads whichever tier
/// served them.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERSIST_CACHE_H
#define TAJ_PERSIST_CACHE_H

#include "persist/Serialize.h"

#include <optional>
#include <string>
#include <vector>

namespace taj {

class ClassHierarchy;
class Stats;

namespace persist {

class MemCache;

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

/// One on-disk artifact cache rooted at a directory.
class ArtifactCache {
public:
  /// Opens (creating if needed) the cache at \p Dir. \p MaxBytes caps the
  /// total size of stored entries (0 = uncapped). \p EvictGraceMs is the
  /// concurrent-reader grace window: eviction skips entries touched more
  /// recently than this (0 = none; supervised batch workers default it
  /// on). If the directory cannot be created the disk tier is disabled:
  /// loads miss, stores are dropped. An empty \p Dir silently disables the
  /// disk tier (mem-only operation once a hot tier is attached).
  explicit ArtifactCache(std::string Dir, uint64_t MaxBytes = 0,
                         uint64_t EvictGraceMs = 0);

  /// True when any tier can serve loads (disk usable or hot tier attached).
  bool enabled() const { return Enabled || Mem != nullptr; }
  const std::string &dir() const { return Dir; }

  /// Layers the in-memory hot tier \p M (not owned; must outlive the
  /// cache) over the disk. Pass nullptr to detach.
  void attachMemTier(MemCache *M) { Mem = M; }
  MemCache *memTier() const { return Mem; }

  /// Composes the content address for one phase entry:
  /// "<phase>-<hex16(fnv(input fp | config fp | format version))>".
  static std::string makeKey(const char *Phase, const std::string &InputFp,
                             const std::string &ConfigFp);

  /// Loads the record payload stored under \p Key after verifying the
  /// record header (magic, version, kind, size, checksum). Returns nullopt
  /// on miss or on any verification failure (counted, logged, entry
  /// deleted). A hit refreshes the entry's LRU position.
  std::optional<LoadedPayload> load(const std::string &Key, ArtifactKind Kind);

  /// Stores \p Payload under \p Key (atomic temp-file + rename), then
  /// evicts least-recently-used entries down to the byte cap.
  void store(const std::string &Key, ArtifactKind Kind,
             const std::vector<uint8_t> &Payload);

  /// Reports that a payload passed record verification but failed
  /// structural restoration: counted as corrupt, logged, entry deleted.
  void noteRestoreFailure(const std::string &Key);

  /// Exports persist.hit / persist.miss / persist.store / persist.evict /
  /// persist.evict_skipped / persist.corrupt / persist.version_miss /
  /// persist.touch_failed counters.
  void exportStats(Stats &S) const;

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t stores() const { return Stores; }
  uint64_t evictions() const { return Evictions; }
  uint64_t evictSkips() const { return EvictSkipped; }
  uint64_t corruptions() const { return Corrupt; }
  /// Well-formed entries from another format generation: counted as a
  /// clean miss (plus this), never as corruption.
  uint64_t versionMisses() const { return VersionMiss; }
  /// Hits whose LRU mtime refresh failed (e.g. a read-only cache dir):
  /// the payload is still served, but eviction order is rotting.
  uint64_t touchFailures() const { return TouchFailed; }
  /// Hits served by the attached hot tier (0 when none is attached).
  uint64_t memHits() const;
  /// Payloads admitted into the attached hot tier (0 when none).
  uint64_t memStores() const;

private:
  std::string pathFor(const std::string &Key) const;
  void evictToCap();

  std::string Dir;
  uint64_t MaxBytes;
  uint64_t EvictGraceMs;
  bool Enabled = false;
  MemCache *Mem = nullptr;
  uint64_t Hits = 0, Misses = 0, Stores = 0, Evictions = 0, EvictSkipped = 0,
           Corrupt = 0, VersionMiss = 0, TouchFailed = 0;
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
