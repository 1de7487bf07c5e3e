//===- rhs/Tabulation.h - RHS summary-based reachability -------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Context-sensitive (realizable-path) forward reachability over an SDG,
/// after Reps-Horwitz-Sagiv tabulation [POPL'95] as used by TAJ §3.2:
/// same-level summaries from formal-ins to formal-outs are computed on
/// demand and applied at call sites, and slices are taken in the classic
/// two-phase Horwitz-Reps-Binkley style (phase 1 ascends to callers using
/// summaries to step over calls; phase 2 descends into callees).
///
/// Traversal is per security rule: statements that sanitize the rule — and
/// sink statements — have no successors (paper §3.2).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_RHS_TABULATION_H
#define TAJ_RHS_TABULATION_H

#include "sdg/SDG.h"

#include <deque>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace taj {

class RunGuard;

/// Demand-driven tabulation over one SDG for one security rule. Summaries
/// are memoized across slice requests, so reuse one instance per
/// (SDG, rule) pair.
///
/// When a RunGuard is supplied, every worklist pop checkpoints it; on a
/// cutoff the pending work is dropped and the slice computed so far is
/// returned as-is (an underapproximation of realizable reachability).
class Tabulation {
public:
  Tabulation(const SDG &G, RuleMask Rule, RunGuard *Guard = nullptr);

  /// Persistent slice state; pass the same object to forwardSlice to grow
  /// a slice incrementally (the hybrid slicer adds store->load hop seeds).
  /// Dense arrays indexed by SDG node, sized on first use; one object is
  /// meant to be reused across many slices (one per slicing worker), with
  /// reset() between them.
  struct SliceResult {
    static constexpr uint32_t Unreached = ~0u;
    /// node -> BFS distance from the nearest seed (Unreached if not in the
    /// slice).
    std::vector<uint32_t> Dist;
    /// node -> discovery predecessor (InvalidId for seeds and unreached
    /// nodes).
    std::vector<SDGNodeId> Parent;
    /// Every reached node, in first-reach order.
    std::vector<SDGNodeId> Reached;

    bool reached(SDGNodeId N) const {
      return N < Dist.size() && Dist[N] != Unreached;
    }
    /// Sizes the arrays for a graph of \p NumNodes nodes; a no-op once
    /// sized for that graph.
    void fit(uint32_t NumNodes) {
      if (Dist.size() == NumNodes)
        return;
      Dist.assign(NumNodes, Unreached);
      Parent.assign(NumNodes, InvalidId);
      Reached.clear();
      Visited.assign(NumNodes, 0);
      Epoch = 0;
    }
    /// Forgets the slice in O(reached); the arrays keep their size.
    void reset() {
      for (SDGNodeId N : Reached) {
        Dist[N] = Unreached;
        Parent[N] = InvalidId;
      }
      Reached.clear();
    }

  private:
    friend class Tabulation;
    // forwardSlice scratch, reused across calls: a node is visited in the
    // current phase iff Visited[node] == Epoch. Kept here rather than in
    // the Tabulation so a worker holds one copy, not one per rule.
    std::vector<uint32_t> Visited;
    uint32_t Epoch = 0;
    /// FIFO of (node, dist, parent); Head is the next entry to pop.
    std::vector<std::tuple<SDGNodeId, uint32_t, SDGNodeId>> Queue;
    size_t Head = 0;
    /// Starts a traversal phase: empties the queue and the visited set.
    void beginPhase();
  };

  /// Extends \p R with everything forward-reachable along realizable paths
  /// from \p Seeds (pairs of node and initial distance). Newly reached
  /// nodes are appended to R.Reached.
  void forwardSlice(const std::vector<std::pair<SDGNodeId, uint32_t>> &Seeds,
                    SliceResult &R);

  /// Number of path edges processed (scalability metric).
  uint64_t pathEdgeCount() const { return PathEdgeCount; }

private:
  /// True if traversal must stop at \p N (sanitizer for this rule, or
  /// sink): such statements have no successors in the no-heap SDG.
  bool isBarrier(SDGNodeId N) const;

  /// Call-site info owning an ActualIn/ChanActualIn/Invoke-stmt node.
  const CallSiteInfo *siteOf(SDGNodeId N) const;

  // --- Summary engine -----------------------------------------------------
  void seedSummary(SDGNodeId FIn);
  void drainSummaries();
  void recordSummaryOut(SDGNodeId FIn, SDGNodeId FOut, uint32_t D);
  void propagateSame(SDGNodeId FIn, SDGNodeId N, uint32_t D);

  struct Sub {
    uint32_t Ctx; ///< the FIn whose same-level traversal waits here
    SDGNodeId At; ///< the actual-in node where the summary applies
  };

  const SDG &G;
  RuleMask Rule;
  RunGuard *Guard = nullptr;
  uint64_t PathEdgeCount = 0;

  // Same-level path edges: (FIn, node) -> dist.
  std::unordered_map<uint64_t, uint32_t> PathDist;
  // FIn -> [(FOut-like node, interior dist)]
  std::unordered_map<SDGNodeId, std::vector<std::pair<SDGNodeId, uint32_t>>>
      SummaryOuts;
  std::unordered_map<SDGNodeId, std::vector<Sub>> Subscribers;
  std::unordered_set<SDGNodeId> SummarySeeded;
  std::deque<std::tuple<SDGNodeId, SDGNodeId, uint32_t>> SummaryWork;
};

} // namespace taj

#endif // TAJ_RHS_TABULATION_H
