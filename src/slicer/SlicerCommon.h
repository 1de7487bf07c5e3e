//===- slicer/SlicerCommon.h - Shared slicer helpers -----------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the three slicer implementations: flow-path
/// reconstruction for LCP report grouping, the per-source slicing engine
/// (work-item collection, the slice loop, deterministic merge), and the
/// one driver that runs a slicer from SDG build to witness replay.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SLICER_SLICERCOMMON_H
#define TAJ_SLICER_SLICERCOMMON_H

#include "persist/Cache.h"
#include "rhs/Tabulation.h"
#include "sdg/SDG.h"
#include "slicer/Issue.h"
#include "slicer/Slicer.h"
#include "support/RunGuard.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

namespace taj {
namespace slicer_detail {

/// Runs the SDG/heap checkers right after the graph bundle is ready (cold
/// build or warm restore). No-op unless verification is on and the build
/// completed without a governance stop — a truncated graph is deliberately
/// partial, not inconsistent. Under --verify=full a violating warm restore
/// additionally counts as a rejected persisted artifact (the cache's hot
/// tier skips the record checksum, so this is the only guard it has) and
/// the poisoned cache entry is dropped for later runs.
inline void verifySdgPhase(const Program &P, const SDG &G,
                           const HeapEdges *HE, const PointsToSolver &Solver,
                           const SlicerOptions &Opts, bool FromCache) {
  if (Opts.Verify == verify::VerifyMode::Off || !Opts.Violations)
    return;
  if (Opts.Guard && Opts.Guard->stopped())
    return;
  const uint64_t Before = Opts.Violations->total();
  verify::verifySdg(P, G, HE, Solver, Opts.Verify, *Opts.Violations);
  if (FromCache && Opts.Verify == verify::VerifyMode::Full &&
      Opts.Violations->total() != Before)
    Opts.Cache->noteRestoreFailure(Opts.CacheKey, Opts.Violations);
}

/// Replays every reported issue as a connected HSDG witness path after the
/// slicing loops finish. Skipped when slicing was cut short: the issue
/// list is then a pure function of the completed items, but the distances
/// a fresh replay finds need not match what a truncated traversal saw.
inline void verifyWitnessPhase(const SDG &G, const HeapEdges *HE,
                               const SliceRunResult &Out,
                               const SlicerOptions &Opts) {
  if (Opts.Verify == verify::VerifyMode::Off || !Opts.Violations)
    return;
  if (Opts.Guard && Opts.Guard->stopped())
    return;
  verify::verifyWitnesses(G, HE, Out.Issues, *Opts.Violations);
}

/// Walks discovery parents from \p From back to a seed, collecting the
/// statement path in source-to-sink order; \p Sink is appended when the
/// walk starts elsewhere (taint-carrier flows end at the sink directly).
/// \p Parent is indexed by SDG node (InvalidId: no parent); \p HopParent,
/// when given, supplies the store->load hop links of nodes whose Parent is
/// InvalidId.
inline std::vector<StmtId>
reconstructPath(const SDG &G, const std::vector<SDGNodeId> &Parent,
                const std::unordered_map<SDGNodeId, SDGNodeId> *HopParent,
                SDGNodeId From, SDGNodeId Sink) {
  std::vector<StmtId> Rev;
  if (Sink != From && G.node(Sink).Kind == SDGNodeKind::Stmt)
    Rev.push_back(G.node(Sink).S);
  SDGNodeId Cur = From;
  size_t Guard = 0;
  while (Cur != InvalidId && Guard++ < 4096) {
    const SDGNode &N = G.node(Cur);
    StmtId S = ~0u;
    if (N.Kind == SDGNodeKind::Stmt)
      S = N.S;
    else if ((N.Kind == SDGNodeKind::ActualIn ||
              N.Kind == SDGNodeKind::ChanActualIn) &&
             N.Aux != InvalidId)
      S = G.node(N.Aux).S; // record the call site the flow entered through
    if (S != ~0u && (Rev.empty() || Rev.back() != S))
      Rev.push_back(S);
    SDGNodeId Next = Parent[Cur];
    if (Next == InvalidId && HopParent) {
      auto HIt = HopParent->find(Cur);
      if (HIt != HopParent->end())
        Next = HIt->second;
    }
    Cur = Next;
  }
  std::reverse(Rev.begin(), Rev.end());
  return Rev;
}

/// Position of every store node in G.storeNodes(), indexed by SDG node
/// (NotAStore for other nodes). Built once per run, before the slice loop.
inline constexpr uint32_t NotAStore = ~0u;
inline std::vector<uint32_t> storePositions(const SDG &G) {
  std::vector<uint32_t> Pos(G.numNodes(), NotAStore);
  const std::vector<SDGNodeId> &Stores = G.storeNodes();
  for (uint32_t I = 0; I < Stores.size(); ++I)
    Pos[Stores[I]] = I;
  return Pos;
}

/// Fills \p Out with the store positions of R.Reached[From, end), sorted:
/// those stores in G.storeNodes() order.
inline void reachedStores(const Tabulation::SliceResult &R, size_t From,
                          const std::vector<uint32_t> &StorePos,
                          std::vector<uint32_t> &Out) {
  Out.clear();
  for (size_t I = From; I < R.Reached.size(); ++I)
    if (uint32_t P = StorePos[R.Reached[I]]; P != NotAStore)
      Out.push_back(P);
  std::sort(Out.begin(), Out.end());
}

//===----------------------------------------------------------------------===//
// Per-source slicing engine
//===----------------------------------------------------------------------===//
//
// All three slicers share the same outer shape: after the SDG / heap-edge
// build, a strictly read-only traversal runs per (rule, source) pair. The
// engine below runs those pairs in one loop:
//
//  - items are collected rule-major (rule bit outer, sourceNodes() order
//    inner);
//  - each item appends its issues — every Record attempt surviving the
//    flow-length filter, in discovery order — to a scratch buffer, which
//    is merged through one dedup set (first occurrence wins) before the
//    final sort;
//  - under a guard cutoff, an item contributes only if it completed before
//    the stop: the item that observes the stop mid-way is discarded.
//    Partial runs therefore stay strictly underapproximate, and the output
//    is a pure function of the set of completed items.

/// One unit of slicing work: one taint source under one security rule.
struct SliceItem {
  int RuleBit = 0;
  SDGNodeId Src = InvalidId;
};

/// Collects the (rule, source) items in the sequential rule-major order.
inline std::vector<SliceItem> collectSliceItems(const SDG &G) {
  std::vector<SliceItem> Items;
  for (int RB = 0; RB < rules::NumRules; ++RB)
    for (SDGNodeId Src : G.sourceNodes(static_cast<RuleMask>(1u << RB)))
      Items.push_back({RB, Src});
  return Items;
}

/// Slicing state reused across all items of a run:
///  - one memoized Tabulation per rule (RHS slicers), created on the first
///    item of that rule, so summaries are reused across that rule's
///    sources;
///  - dense per-item slice state, sized to the SDG once and reset in
///    O(reached) at the start of every item.
struct SliceWorkerState {
  std::array<std::unique_ptr<Tabulation>, rules::NumRules> Tabs;
  Tabulation::SliceResult R;
  /// Hybrid: load -> store of the last heap hop that seeded it. Hops are
  /// few per item, so a map is smaller than another node-sized array.
  std::unordered_map<SDGNodeId, SDGNodeId> HopParent;
  /// Hybrid/CS: scratch for the reached-store positions of one round.
  std::vector<uint32_t> NewStores;

  Tabulation &tab(const SDG &G, int RuleBit, RunGuard *Guard) {
    auto &T = Tabs[RuleBit];
    if (!T)
      T = std::make_unique<Tabulation>(
          G, static_cast<RuleMask>(1u << RuleBit), Guard);
    return *T;
  }

  /// Forgets the previous item and sizes the dense arrays to \p G.
  void beginItem(const SDG &G) {
    R.reset();
    R.fit(G.numNodes());
    HopParent.clear();
  }
};

/// Per-item slicing counters, accumulated locally by one item and added to
/// the run's `slice.*` counters once the item completes.
struct SliceCounts {
  uint64_t HeapRounds = 0;  ///< re-slices seeded by store->load hops
  uint64_t HeapHops = 0;    ///< store->load hops that reached or
                            ///< shortened a load
  uint64_t CarrierHits = 0; ///< carrier (store -> sink) edges of the rule
};

/// Slices one hybrid (rule, source) item on \p WS (HybridThinSlicer.cpp).
/// Appends every surviving Record attempt to \p Buf in discovery order and
/// adds the item's tabulation work to \p PathEdges.
void sliceOneHybrid(const SDG &G, const HeapEdges &HE,
                    const std::vector<uint32_t> &StorePos,
                    const SlicerOptions &Opts, SliceWorkerState &WS,
                    const SliceItem &It, std::vector<Issue> &Buf,
                    uint64_t &PathEdges, SliceCounts &C);

/// Runs one slicer: builds (or restores) the SDG bundle of shape \p SO,
/// whose Guard, Profile and ModelExceptionSources come from \p Opts,
/// verifies it, slices the collectSliceItems() items in order on one
/// SliceWorkerState and replays the witnesses. A graph whose CS channel
/// budget tripped yields an incomplete result without slicing.
///
/// \p SliceOne has sliceOneHybrid's signature: it appends one item's
/// issues (in discovery order, duplicates included) to Buf and adds the
/// item's traversal work to PathEdges. Completed items are counted into
/// the result's `slice.*` counters.
template <class SliceOneFn>
SliceRunResult runSlicer(const Program &P, const ClassHierarchy &CHA,
                         const PointsToSolver &Solver,
                         const SlicerOptions &Opts, SDGOptions SO,
                         SliceOneFn SliceOne) {
  RunGuard *Guard = Opts.Guard;
  if (Guard)
    Guard->beginPhase(RunPhase::SdgBuild);
  SO.Guard = Guard;
  SO.ModelExceptionSources = Opts.ModelExceptionSources;
  SO.Profile = Opts.Profile;
  persist::SdgArtifacts A;
  {
    PhaseScope PS(Opts.Profile, "sdg");
    A = persist::loadOrBuildSdg(P, CHA, Solver, SO, Opts.NestedTaintDepth,
                                Opts.Cache, Opts.CacheKey);
  }
  const SDG &G = *A.G;
  SliceRunResult Out;
  if (G.chanBudgetExceeded()) {
    // The channel extension exhausted memory: the configuration fails on
    // this input, as CS thin slicing does on TAJ's larger benchmarks.
    Out.Completed = false;
    return Out;
  }
  const HeapEdges &HE = *A.HE;
  verifySdgPhase(P, G, &HE, Solver, Opts, A.FromCache);

  if (Guard)
    Guard->beginPhase(RunPhase::Slicing);
  PhaseScope PS(Opts.Profile, "slicing");
  const std::vector<uint32_t> StorePos = storePositions(G);
  SliceWorkerState WS;
  std::vector<Issue> Buf;
  std::set<Issue> Dedup;
  SliceCounts Total;
  uint64_t Done = 0;
  for (const SliceItem &It : collectSliceItems(G)) {
    // One checkpoint per item; once the guard stops, every later item is
    // skipped and the in-flight one is discarded: underapproximate.
    if (Guard && !Guard->checkpoint())
      break;
    SliceCounts C;
    Buf.clear();
    SliceOne(G, HE, StorePos, Opts, WS, It, Buf, Out.PathEdges, C);
    if (Guard && Guard->stopped())
      break;
    ++Done;
    Total.HeapRounds += C.HeapRounds;
    Total.HeapHops += C.HeapHops;
    Total.CarrierHits += C.CarrierHits;
    for (Issue &Iss : Buf)
      if (Dedup.insert(Iss).second)
        Out.Issues.push_back(std::move(Iss));
  }
  Out.Counters.add("slice.items", Done);
  Out.Counters.add("slice.heap_rounds", Total.HeapRounds);
  Out.Counters.add("slice.heap_hops", Total.HeapHops);
  Out.Counters.add("slice.carrier_hits", Total.CarrierHits);
  std::sort(Out.Issues.begin(), Out.Issues.end());
  verifyWitnessPhase(G, &HE, Out, Opts);
  return Out;
}

} // namespace slicer_detail
} // namespace taj

#endif // TAJ_SLICER_SLICERCOMMON_H
