//===- slicer/CSThinSlicer.cpp - context-sensitive baseline ----*- C++ -*-===//

#include "rhs/Tabulation.h"
#include "slicer/HeapEdges.h"
#include "slicer/Slicer.h"
#include "slicer/SlicerCommon.h"

using namespace taj;
using slicer_detail::SliceItem;

namespace {

void sliceOneCs(const SDG &G, const HeapEdges &HE,
                const std::vector<uint32_t> &StorePos,
                const SlicerOptions &Opts, slicer_detail::SliceWorkerState &WS,
                const SliceItem &It, std::vector<Issue> &Buf,
                uint64_t &PathEdges, slicer_detail::SliceCounts &C) {
  RuleMask Rule = static_cast<RuleMask>(1u << It.RuleBit);
  SDGNodeId Src = It.Src;
  Tabulation &Tab = WS.tab(G, It.RuleBit, Opts.Guard);
  const uint64_t EdgesBefore = Tab.pathEdgeCount();
  WS.beginItem(G);
  Tabulation::SliceResult &R = WS.R;
  Tab.forwardSlice({{Src, 0}}, R);

  auto Record = [&](SDGNodeId Sk, uint32_t Len, SDGNodeId PathFrom) {
    if (Opts.MaxFlowLength != 0 && Len > Opts.MaxFlowLength)
      return;
    Issue Iss;
    Iss.Source = G.node(Src).S;
    Iss.Sink = G.node(Sk).S;
    Iss.Rule = Rule;
    Iss.Length = Len;
    Iss.Path =
        slicer_detail::reconstructPath(G, R.Parent, nullptr, PathFrom, Sk);
    Buf.push_back(std::move(Iss));
  };

  for (SDGNodeId Sk : G.sinkNodes()) {
    if (!(G.node(Sk).SinkMask & Rule))
      continue;
    if (R.reached(Sk))
      Record(Sk, R.Dist[Sk], Sk);
  }
  // Nested taint via carrier edges at reached stores, in storeNodes()
  // order.
  slicer_detail::reachedStores(R, 0, StorePos, WS.NewStores);
  for (uint32_t Pos : WS.NewStores) {
    SDGNodeId St = G.storeNodes()[Pos];
    for (SDGNodeId Sk : HE.carrierSinksFor(St))
      if (G.node(Sk).SinkMask & Rule) {
        ++C.CarrierHits;
        Record(Sk, R.Dist[St] + 1, St);
      }
  }
  PathEdges += Tab.pathEdgeCount() - EdgesBefore;
}

} // namespace

SliceRunResult taj::runCsSlicer(const Program &P, const ClassHierarchy &CHA,
                                const PointsToSolver &Solver,
                                const SlicerOptions &Opts) {
  SDGOptions SO;
  SO.ContextExpanded = true;
  SO.WithChanParams = true;
  SO.ChanNodeBudget = Opts.CsChanBudget;
  return slicer_detail::runSlicer(P, CHA, Solver, Opts, SO, sliceOneCs);
}
