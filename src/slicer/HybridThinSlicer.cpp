//===- slicer/HybridThinSlicer.cpp - TAJ's hybrid thin slicing -*- C++ -*-===//

#include "rhs/Tabulation.h"
#include "slicer/HeapEdges.h"
#include "slicer/Slicer.h"
#include "slicer/SlicerCommon.h"

#include <unordered_map>

using namespace taj;
using slicer_detail::SliceItem;

/// Slices one (rule, source) item: demand-driven HSDG traversal
/// alternating context-sensitive no-heap slices with flow-insensitive
/// store->load hops and taint-carrier edges. Appends every surviving
/// Record attempt to \p Buf in discovery order (the caller dedups).
void slicer_detail::sliceOneHybrid(const SDG &G, const HeapEdges &HE,
                                   const std::vector<uint32_t> &StorePos,
                                   const SlicerOptions &Opts,
                                   SliceWorkerState &WS, const SliceItem &It,
                                   std::vector<Issue> &Buf,
                                   uint64_t &PathEdges, SliceCounts &C) {
  RuleMask Rule = static_cast<RuleMask>(1u << It.RuleBit);
  SDGNodeId Src = It.Src;
  Tabulation &Tab = WS.tab(G, It.RuleBit, Opts.Guard);
  const uint64_t EdgesBefore = Tab.pathEdgeCount();
  WS.beginItem(G);
  Tabulation::SliceResult &R = WS.R;
  std::vector<std::pair<SDGNodeId, uint32_t>> Seeds = {{Src, 0}};
  // §6.2.1: bound on store->load expansions of the slice.
  Budget HeapBudget(Opts.MaxHeapTransitions);
  // Carrier-discovered sinks: sink node -> (store parent, length).
  std::unordered_map<SDGNodeId, std::pair<SDGNodeId, uint32_t>> Carrier;

  // Every reached store is expanded exactly once, in the round after the
  // slice first reaches it: R.Reached[0, Expanded) is done. Within a round
  // the new stores go in G.storeNodes() order, the order of a full store
  // scan, which fixes carrier tie-breaks, HopParent overwrites, budget
  // spending and seed order.
  size_t Expanded = 0;
  while (true) {
    Tab.forwardSlice(Seeds, R);
    Seeds.clear();
    slicer_detail::reachedStores(R, Expanded, StorePos, WS.NewStores);
    Expanded = R.Reached.size();
    for (uint32_t Pos : WS.NewStores) {
      SDGNodeId St = G.storeNodes()[Pos];
      uint32_t D = R.Dist[St];
      // Taint-carrier edges (§4.1.1): store -> sink.
      for (SDGNodeId Sk : HE.carrierSinksFor(St)) {
        if (!(G.node(Sk).SinkMask & Rule))
          continue;
        ++C.CarrierHits;
        auto CIt = Carrier.find(Sk);
        if (CIt == Carrier.end() || CIt->second.second > D + 1)
          Carrier[Sk] = {St, D + 1};
      }
      // Direct store->load edges, metered by the heap budget.
      if (!HeapBudget.consume())
        continue;
      for (SDGNodeId L : HE.loadsFor(St)) {
        if (R.Dist[L] <= D + 1)
          continue;
        Seeds.emplace_back(L, D + 1);
        WS.HopParent[L] = St;
      }
    }
    if (Seeds.empty())
      break;
    ++C.HeapRounds;
    C.HeapHops += Seeds.size();
  }

  auto Record = [&](SDGNodeId Sk, uint32_t Len, SDGNodeId PathFrom) {
    if (Opts.MaxFlowLength != 0 && Len > Opts.MaxFlowLength)
      return; // flow-length filter (§6.2.2)
    Issue Iss;
    Iss.Source = G.node(Src).S;
    Iss.Sink = G.node(Sk).S;
    Iss.Rule = Rule;
    Iss.Length = Len;
    Iss.Path = slicer_detail::reconstructPath(G, R.Parent, &WS.HopParent,
                                              PathFrom, Sk);
    Buf.push_back(std::move(Iss));
  };

  for (SDGNodeId Sk : G.sinkNodes()) {
    if (!(G.node(Sk).SinkMask & Rule))
      continue;
    if (R.reached(Sk))
      Record(Sk, R.Dist[Sk], Sk);
    auto CIt = Carrier.find(Sk);
    if (CIt != Carrier.end())
      Record(Sk, CIt->second.second, CIt->second.first);
  }
  PathEdges += Tab.pathEdgeCount() - EdgesBefore;
}

SliceRunResult taj::runHybridSlicer(const Program &P,
                                    const ClassHierarchy &CHA,
                                    const PointsToSolver &Solver,
                                    const SlicerOptions &Opts) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  SO.WithChanParams = false;
  return slicer_detail::runSlicer(P, CHA, Solver, Opts, SO,
                                  slicer_detail::sliceOneHybrid);
}
