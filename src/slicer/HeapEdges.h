//===- slicer/HeapEdges.h - Direct store->load & carrier edges -*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-insensitive heap edges of the HSDG (TAJ §3.2 and §4.1.1):
///
///  - direct edges from a store to every load whose base pointer may alias
///    the store's base (per the preliminary pointer analysis), with
///    constant-key filtering for dictionary channels;
///  - taint-carrier edges from a store to every sink one of whose
///    sensitive actuals may reach the stored-into object in the heap graph
///    within the nested-taint depth bound (§6.2.3).
///
/// The full store adjacency is materialized at construction time, before
/// slicing begins; afterwards the object is immutable and loadsFor() /
/// carrierSinksFor() are plain const lookups. A governed instance
/// (non-null \p Guard) checkpoints per indexed load/sink and per
/// materialized store; after a cutoff the remaining stores serve empty
/// adjacency, which only removes heap hops from slices (underapproximate).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SLICER_HEAPEDGES_H
#define TAJ_SLICER_HEAPEDGES_H

#include "heapgraph/HeapGraph.h"
#include "sdg/SDG.h"

#include <unordered_map>
#include <vector>

namespace taj {

namespace persist {
struct Access;
}

/// Immutable heap adjacency for one (SDG, solver) pair.
class HeapEdges {
public:
  HeapEdges(const Program &P, const SDG &G, const PointsToSolver &Solver,
            const HeapGraph &HG, uint32_t NestedDepth,
            RunGuard *Guard = nullptr);

  /// Loads that may read what \p Store wrote.
  const std::vector<SDGNodeId> &loadsFor(SDGNodeId Store) const;

  /// Sinks whose sensitive arguments may reach the object \p Store wrote
  /// into (nested taint, §4.1.1).
  const std::vector<SDGNodeId> &carrierSinksFor(SDGNodeId Store) const;

private:
  /// Test-only corruption hooks (tests/verify_test.cpp).
  friend class HeapEdgesTestPeer;
  /// Serialization (persist/Serialize.cpp) snapshots and restores the
  /// materialized store adjacency through the tag constructor below.
  friend struct persist::Access;

  /// Restore-path constructor: binds the live references but materializes
  /// nothing; persist::Access fills Stores from a cache record (the
  /// build-only load indices stay empty — they are never read after
  /// construction).
  struct RestoreTag {};
  HeapEdges(const Program &P, const SDG &G, const PointsToSolver &Solver,
            const HeapGraph &HG, uint32_t NestedDepth, RestoreTag)
      : P(P), G(G), Solver(Solver), HG(HG), NestedDepth(NestedDepth) {}

  struct StoreInfo {
    std::vector<SDGNodeId> Loads;
    std::vector<SDGNodeId> CarrierSinks;
  };
  /// Build-time only: materializes the adjacency of one store.
  void computeStore(SDGNodeId Store, RunGuard *Guard);

  const std::vector<IKId> &baseIKs(SDGNodeId Node) const;
  /// Constant key of a map access (SDG::constKeyOf): channels with
  /// distinct resolved keys never connect, so dictionary precision here
  /// follows the --string-analysis mode.
  Symbol mapKeyOf(SDGNodeId Node) const;

  const Program &P;
  const SDG &G;
  const PointsToSolver &Solver;
  const HeapGraph &HG;
  uint32_t NestedDepth;

  struct LoadInfo {
    SDGNodeId Node;
    HeapAccess Access;
    FieldId Field;
    Symbol MapKey; ///< ~0u = non-constant key
    std::vector<IKId> BaseIKs;
  };
  std::vector<LoadInfo> FieldLoads, StaticLoads, ArrayLoads, MapGets,
      CollGets;
  std::unordered_map<IKId, std::vector<SDGNodeId>> IkToSinks;
  std::unordered_map<SDGNodeId, StoreInfo> Stores;
};

} // namespace taj

#endif // TAJ_SLICER_HEAPEDGES_H
