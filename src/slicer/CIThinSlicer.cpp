//===- slicer/CIThinSlicer.cpp - context-insensitive baseline --*- C++ -*-===//

#include "slicer/HeapEdges.h"
#include "slicer/Slicer.h"
#include "slicer/SlicerCommon.h"
#include "support/Stats.h"

#include <unordered_map>

using namespace taj;
using slicer_detail::SliceItem;

namespace {

/// Plain BFS from one source: every SDG edge is followed with no
/// call/return matching, plus direct store->load heap edges — CI thin
/// slicing. Store->load expansion is metered by the §6.2.1 heap budget,
/// exactly as in the hybrid slicer; taint-carrier recording is not.
/// R.Reached doubles as the BFS queue: nodes are enqueued exactly when
/// first reached.
void sliceOneCi(const SDG &G, const HeapEdges &HE,
                const std::vector<uint32_t> & /*StorePos*/,
                const SlicerOptions &Opts, slicer_detail::SliceWorkerState &WS,
                const SliceItem &It, std::vector<Issue> &Buf, uint64_t &Edges,
                slicer_detail::SliceCounts &C) {
  RuleMask Rule = static_cast<RuleMask>(1u << It.RuleBit);
  SDGNodeId Src = It.Src;
  Budget HeapBudget(Opts.MaxHeapTransitions);
  WS.beginItem(G);
  Tabulation::SliceResult &R = WS.R;
  std::unordered_map<SDGNodeId, std::pair<SDGNodeId, uint32_t>> Carrier;
  R.Dist[Src] = 0;
  R.Reached.push_back(Src);
  for (size_t Head = 0; Head < R.Reached.size(); ++Head) {
    if (Opts.Guard && !Opts.Guard->checkpoint())
      break; // cutoff: the caller discards this in-flight item
    SDGNodeId N = R.Reached[Head];
    ++Edges;
    uint32_t D = R.Dist[N];
    auto Reach = [&](SDGNodeId To) {
      if (R.reached(To))
        return false;
      R.Dist[To] = D + 1;
      R.Parent[To] = N;
      R.Reached.push_back(To);
      return true;
    };
    const SDGNode &Node = G.node(N);
    bool Barrier = Node.Kind == SDGNodeKind::Stmt &&
                   ((Node.SanitizeMask & Rule) || (Node.SinkMask & Rule));
    if (Barrier)
      continue;
    for (const SDGEdge &E : G.succs(N))
      Reach(E.To);
    // Heap hops at stores.
    switch (Node.Access) {
    case HeapAccess::FieldStore:
    case HeapAccess::ArrayStore:
    case HeapAccess::StaticStore:
    case HeapAccess::MapPut:
    case HeapAccess::CollAdd: {
      for (SDGNodeId Sk : HE.carrierSinksFor(N)) {
        if (!(G.node(Sk).SinkMask & Rule))
          continue;
        ++C.CarrierHits;
        auto CIt = Carrier.find(Sk);
        if (CIt == Carrier.end() || CIt->second.second > D + 1)
          Carrier[Sk] = {N, D + 1};
      }
      // Direct store->load edges, metered by the heap budget (§6.2.1).
      if (!HeapBudget.consume())
        break;
      for (SDGNodeId L : HE.loadsFor(N))
        C.HeapHops += Reach(L);
      break;
    }
    default:
      break;
    }
  }

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
    auto CIt = Carrier.find(Sk);
    if (CIt != Carrier.end())
      Record(Sk, CIt->second.second, CIt->second.first);
  }
}

} // namespace

SliceRunResult taj::runCiSlicer(const Program &P, const ClassHierarchy &CHA,
                                const PointsToSolver &Solver,
                                const SlicerOptions &Opts) {
  SDGOptions SO;
  SO.ContextExpanded = false;
  SO.WithChanParams = false;
  return slicer_detail::runSlicer(P, CHA, Solver, Opts, SO, sliceOneCi);
}
