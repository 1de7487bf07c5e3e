//===- rhs/Tabulation.cpp --------------------------------------*- C++ -*-===//

#include "rhs/Tabulation.h"
#include "support/RunGuard.h"

#include <algorithm>
#include <cassert>

using namespace taj;

Tabulation::Tabulation(const SDG &G, RuleMask Rule, RunGuard *Guard)
    : G(G), Rule(Rule), Guard(Guard) {}

bool Tabulation::isBarrier(SDGNodeId N) const {
  const SDGNode &Node = G.node(N);
  if (Node.Kind != SDGNodeKind::Stmt)
    return false;
  // Sanitizer returns and sink calls have no successors (§3.2).
  return (Node.SanitizeMask & Rule) != 0 || (Node.SinkMask & Rule) != 0;
}

const CallSiteInfo *Tabulation::siteOf(SDGNodeId N) const {
  const SDGNode &Node = G.node(N);
  switch (Node.Kind) {
  case SDGNodeKind::Stmt:
    return G.callSite(N);
  case SDGNodeKind::ActualIn:
  case SDGNodeKind::ChanActualIn:
    return Node.Aux == InvalidId ? nullptr : G.callSite(Node.Aux);
  default:
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Summary engine
//===----------------------------------------------------------------------===//

void Tabulation::seedSummary(SDGNodeId FIn) {
  if (!SummarySeeded.insert(FIn).second)
    return;
  SummaryWork.emplace_back(FIn, FIn, 0);
}

void Tabulation::propagateSame(SDGNodeId FIn, SDGNodeId N, uint32_t D) {
  uint64_t Key = (static_cast<uint64_t>(FIn) << 32) | N;
  auto It = PathDist.find(Key);
  if (It != PathDist.end() && It->second <= D)
    return;
  PathDist[Key] = D;
  SummaryWork.emplace_back(FIn, N, D);
}

void Tabulation::recordSummaryOut(SDGNodeId FIn, SDGNodeId FOut, uint32_t D) {
  auto &Outs = SummaryOuts[FIn];
  for (auto &[O, DD] : Outs)
    if (O == FOut) {
      if (D < DD)
        DD = D;
      return;
    }
  Outs.emplace_back(FOut, D);
  // Re-propagate at every call site waiting on this summary.
  auto It = Subscribers.find(FIn);
  if (It == Subscribers.end())
    return;
  for (const Sub &S : It->second) {
    const CallSiteInfo *CS = siteOf(S.At);
    if (!CS)
      continue;
    SDGNodeId AOut = G.actualOutFor(*CS, FOut);
    if (AOut == InvalidId)
      continue;
    uint64_t Key = (static_cast<uint64_t>(S.Ctx) << 32) | S.At;
    auto DI = PathDist.find(Key);
    uint32_t Base = DI == PathDist.end() ? 0 : DI->second;
    propagateSame(S.Ctx, AOut, Base + D + 2);
  }
}

void Tabulation::drainSummaries() {
  while (!SummaryWork.empty()) {
    if (Guard && !Guard->checkpoint()) {
      // Cutoff: drop pending summary work; partially drained summaries
      // only shrink the slice (underapproximate), never grow it.
      SummaryWork.clear();
      return;
    }
    auto [FIn, N, D] = SummaryWork.front();
    SummaryWork.pop_front();
    ++PathEdgeCount;
    const SDGNode &Node = G.node(N);
    const SDGNode &FNode = G.node(FIn);

    // Reaching a formal-out of the same method completes a summary.
    if ((Node.Kind == SDGNodeKind::FormalOut ||
         Node.Kind == SDGNodeKind::ChanFormalOut) &&
        Node.Owner == FNode.Owner) {
      recordSummaryOut(FIn, N, D);
      continue;
    }
    if (isBarrier(N))
      continue;
    for (const SDGEdge &E : G.succs(N)) {
      switch (E.Kind) {
      case SDGEdgeKind::Flow:
        propagateSame(FIn, E.To, D + 1);
        break;
      case SDGEdgeKind::ParamIn: {
        // Step over the call via callee summaries.
        SDGNodeId CalleeFIn = E.To;
        seedSummary(CalleeFIn);
        Subscribers[CalleeFIn].push_back({FIn, N});
        auto SIt = SummaryOuts.find(CalleeFIn);
        if (SIt != SummaryOuts.end()) {
          const CallSiteInfo *CS = siteOf(N);
          if (CS)
            for (auto &[FOut, DD] : SIt->second) {
              SDGNodeId AOut = G.actualOutFor(*CS, FOut);
              if (AOut != InvalidId)
                propagateSame(FIn, AOut, D + DD + 2);
            }
        }
        break;
      }
      case SDGEdgeKind::ParamOut:
        break; // never exits the same level
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Two-phase slicing
//===----------------------------------------------------------------------===//

void Tabulation::SliceResult::beginPhase() {
  if (++Epoch == 0) { // wrapped: stale stamps could alias the new epoch
    std::fill(Visited.begin(), Visited.end(), 0);
    Epoch = 1;
  }
  Queue.clear();
  Head = 0;
}

void Tabulation::forwardSlice(
    const std::vector<std::pair<SDGNodeId, uint32_t>> &Seeds,
    SliceResult &R) {
  R.fit(G.numNodes());

  // Phase 1: ascend (Flow + ParamOut + summaries). The nodes it newly
  // reaches, R.Reached[Phase1Begin, Phase1End), seed phase 2.
  const size_t Phase1Begin = R.Reached.size();
  R.beginPhase();
  for (auto [S, D] : Seeds)
    R.Queue.emplace_back(S, D, InvalidId);
  while (R.Head < R.Queue.size()) {
    if (Guard && !Guard->checkpoint())
      break; // cutoff: keep what phase 1 reached so far
    auto [N, D, Par] = R.Queue[R.Head++];
    if (R.Visited[N] == R.Epoch)
      continue;
    R.Visited[N] = R.Epoch;
    ++PathEdgeCount;
    if (R.Dist[N] == SliceResult::Unreached)
      R.Reached.push_back(N);
    if (D < R.Dist[N]) {
      R.Dist[N] = D;
      R.Parent[N] = Par;
    }
    if (isBarrier(N))
      continue;
    for (const SDGEdge &E : G.succs(N)) {
      if (E.Kind == SDGEdgeKind::Flow || E.Kind == SDGEdgeKind::ParamOut)
        R.Queue.emplace_back(E.To, D + 1, N);
      else if (E.Kind == SDGEdgeKind::ParamIn) {
        seedSummary(E.To);
        drainSummaries();
        auto SIt = SummaryOuts.find(E.To);
        if (SIt == SummaryOuts.end())
          continue;
        const CallSiteInfo *CS = siteOf(N);
        if (!CS)
          continue;
        for (auto &[FOut, DD] : SIt->second) {
          SDGNodeId AOut = G.actualOutFor(*CS, FOut);
          if (AOut != InvalidId)
            R.Queue.emplace_back(AOut, D + DD + 2, N);
        }
      }
    }
  }

  // Phase 2: descend (Flow + ParamIn + summaries) from everything phase 1
  // newly reached, at the distance it was reached at (phase 1 visits a
  // node once, so that distance is still its Dist).
  const size_t Phase1End = R.Reached.size();
  R.beginPhase();
  for (size_t I = Phase1Begin; I < Phase1End; ++I)
    R.Queue.emplace_back(R.Reached[I], R.Dist[R.Reached[I]], InvalidId);
  while (R.Head < R.Queue.size()) {
    if (Guard && !Guard->checkpoint())
      break; // cutoff: return the partial slice
    auto [N, D, Par] = R.Queue[R.Head++];
    if (R.Visited[N] == R.Epoch)
      continue;
    R.Visited[N] = R.Epoch;
    ++PathEdgeCount;
    if (D < R.Dist[N]) {
      // Only phase-1 nodes enter without a parent, and those are already
      // reached, so a newly reached node always gets its parent here.
      if (R.Dist[N] == SliceResult::Unreached)
        R.Reached.push_back(N);
      R.Dist[N] = D;
      if (Par != InvalidId)
        R.Parent[N] = Par;
    }
    if (isBarrier(N))
      continue;
    bool HasParamIn = false;
    for (const SDGEdge &E : G.succs(N)) {
      if (E.Kind == SDGEdgeKind::Flow || E.Kind == SDGEdgeKind::ParamIn)
        R.Queue.emplace_back(E.To, D + 1, N);
      HasParamIn |= E.Kind == SDGEdgeKind::ParamIn;
    }
    // Step over calls with summaries as well, so flow continuing after a
    // call inside a descended-into method is found.
    if (!HasParamIn)
      continue;
    const CallSiteInfo *CS = siteOf(N);
    if (!CS)
      continue;
    for (const SDGEdge &E : G.succs(N)) {
      if (E.Kind != SDGEdgeKind::ParamIn)
        continue;
      seedSummary(E.To);
      drainSummaries();
      auto SIt = SummaryOuts.find(E.To);
      if (SIt == SummaryOuts.end())
        continue;
      for (auto &[FOut, DD] : SIt->second) {
        SDGNodeId AOut = G.actualOutFor(*CS, FOut);
        if (AOut != InvalidId)
          R.Queue.emplace_back(AOut, D + DD + 2, N);
      }
    }
  }
}
