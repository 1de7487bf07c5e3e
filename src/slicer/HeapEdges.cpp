//===- slicer/HeapEdges.cpp ------------------------------------*- C++ -*-===//

#include "slicer/HeapEdges.h"
#include "support/RunGuard.h"

#include <algorithm>

using namespace taj;

static bool intersects(const std::vector<IKId> &A,
                       const std::vector<IKId> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] == B[J])
      return true;
    if (A[I] < B[J])
      ++I;
    else
      ++J;
  }
  return false;
}

const std::vector<IKId> &HeapEdges::baseIKs(SDGNodeId Node) const {
  return G.basePointsTo(Node);
}

Symbol HeapEdges::mapKeyOf(SDGNodeId Node) const { return G.constKeyOf(Node); }

HeapEdges::HeapEdges(const Program &P, const SDG &G,
                     const PointsToSolver &Solver, const HeapGraph &HG,
                     uint32_t NestedDepth, RunGuard *Guard)
    : P(P), G(G), Solver(Solver), HG(HG), NestedDepth(NestedDepth) {
  // Index all loads by access class.
  for (SDGNodeId L : G.loadNodes()) {
    if (Guard && !Guard->checkpoint())
      return; // cutoff: unindexed loads simply lose their heap hops
    const SDGNode &N = G.node(L);
    LoadInfo LI;
    LI.Node = L;
    LI.Access = N.Access;
    LI.Field = P.stmt(N.S).Field;
    LI.MapKey = ~0u;
    switch (N.Access) {
    case HeapAccess::FieldLoad:
      LI.BaseIKs = baseIKs(L);
      FieldLoads.push_back(std::move(LI));
      break;
    case HeapAccess::StaticLoad:
      StaticLoads.push_back(std::move(LI));
      break;
    case HeapAccess::ArrayLoad:
    case HeapAccess::InvokeArgsRead:
      LI.BaseIKs = baseIKs(L);
      ArrayLoads.push_back(std::move(LI));
      break;
    case HeapAccess::MapGet:
      LI.BaseIKs = baseIKs(L);
      LI.MapKey = mapKeyOf(L);
      MapGets.push_back(std::move(LI));
      break;
    case HeapAccess::CollGet:
      LI.BaseIKs = baseIKs(L);
      CollGets.push_back(std::move(LI));
      break;
    default:
      break;
    }
  }
  // Invert sink-argument heap reachability: ik -> sinks whose sensitive
  // actuals reach it within the nested-taint depth (§4.1.1 steps 1-2).
  for (SDGNodeId SkNode : G.sinkNodes()) {
    if (Guard && !Guard->checkpoint())
      return; // cutoff: remaining sinks get no carrier edges
    const SDGNode &N = G.node(SkNode);
    const Instruction &I = P.stmt(N.S);
    uint32_t Mask = 0;
    for (MethodId T : Solver.intrinsicCalleesAt(N.S))
      if (P.Methods[T].SinkRules)
        Mask |= P.Methods[T].SinkParamMask;
    for (MethodId T : Solver.callGraph().calleesAt(N.S))
      if (P.Methods[T].SinkRules)
        Mask |= P.Methods[T].SinkParamMask;
    std::vector<IKId> ArgIKs;
    for (uint32_t K = 0; K < I.Args.size(); ++K) {
      if (!(Mask & (1u << K)))
        continue;
      for (IKId IK : G.argPointsTo(SkNode, K))
        ArgIKs.push_back(IK);
    }
    std::sort(ArgIKs.begin(), ArgIKs.end());
    ArgIKs.erase(std::unique(ArgIKs.begin(), ArgIKs.end()), ArgIKs.end());
    // A store whose base sits at heap depth d puts the data at dereference
    // depth d+1, so the base must lie within NestedDepth-1 (§6.2.3).
    if (NestedDepth == 0)
      continue;
    for (IKId IK : HG.reachable(ArgIKs, NestedDepth - 1))
      IkToSinks[IK].push_back(SkNode);
  }
  // Materialize every store's adjacency now: slicing only ever reads this
  // object.
  for (SDGNodeId St : G.storeNodes())
    computeStore(St, Guard);
}

void HeapEdges::computeStore(SDGNodeId Store, RunGuard *Guard) {
  StoreInfo &SI = Stores[Store];
  if (Guard && !Guard->checkpoint())
    return; // cutoff: this store contributes no heap edges

  const SDGNode &N = G.node(Store);
  const Instruction &I = P.stmt(N.S);
  auto AddCarriers = [&](const std::vector<IKId> &Base) {
    for (IKId IK : Base) {
      auto SIt = IkToSinks.find(IK);
      if (SIt != IkToSinks.end())
        for (SDGNodeId Sk : SIt->second)
          SI.CarrierSinks.push_back(Sk);
    }
  };
  switch (N.Access) {
  case HeapAccess::StaticStore: {
    for (const LoadInfo &L : StaticLoads)
      if (L.Field == I.Field)
        SI.Loads.push_back(L.Node);
    return; // statics have no base object: no carrier edges
  }
  case HeapAccess::FieldStore: {
    const std::vector<IKId> &Base = baseIKs(Store);
    for (const LoadInfo &L : FieldLoads)
      if (L.Field == I.Field && intersects(Base, L.BaseIKs))
        SI.Loads.push_back(L.Node);
    AddCarriers(Base);
    break;
  }
  case HeapAccess::ArrayStore: {
    const std::vector<IKId> &Base = baseIKs(Store);
    for (const LoadInfo &L : ArrayLoads)
      if (intersects(Base, L.BaseIKs))
        SI.Loads.push_back(L.Node);
    AddCarriers(Base);
    break;
  }
  case HeapAccess::MapPut: {
    const std::vector<IKId> &Base = baseIKs(Store);
    Symbol PutKey = mapKeyOf(Store);
    for (const LoadInfo &L : MapGets) {
      bool KeyCompat =
          PutKey == ~0u || L.MapKey == ~0u || PutKey == L.MapKey;
      if (KeyCompat && intersects(Base, L.BaseIKs))
        SI.Loads.push_back(L.Node);
    }
    AddCarriers(Base);
    break;
  }
  case HeapAccess::CollAdd: {
    const std::vector<IKId> &Base = baseIKs(Store);
    for (const LoadInfo &L : CollGets)
      if (intersects(Base, L.BaseIKs))
        SI.Loads.push_back(L.Node);
    AddCarriers(Base);
    break;
  }
  default:
    break;
  }
  std::sort(SI.CarrierSinks.begin(), SI.CarrierSinks.end());
  SI.CarrierSinks.erase(
      std::unique(SI.CarrierSinks.begin(), SI.CarrierSinks.end()),
      SI.CarrierSinks.end());
}

static const std::vector<SDGNodeId> EmptyAdjacency;

const std::vector<SDGNodeId> &HeapEdges::loadsFor(SDGNodeId Store) const {
  auto It = Stores.find(Store);
  return It == Stores.end() ? EmptyAdjacency : It->second.Loads;
}

const std::vector<SDGNodeId> &
HeapEdges::carrierSinksFor(SDGNodeId Store) const {
  auto It = Stores.find(Store);
  return It == Stores.end() ? EmptyAdjacency : It->second.CarrierSinks;
}
