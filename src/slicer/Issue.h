//===- slicer/Issue.h - Reported taint flows -------------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result vocabulary shared by the three thin slicers: an Issue is one
/// source-to-sink tainted flow (TAJ §3), and a SliceRunResult is the output
/// of one slicing configuration (CS thin slicing may fail to complete,
/// mirroring its out-of-memory rows in Table 3).
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SLICER_ISSUE_H
#define TAJ_SLICER_ISSUE_H

#include "ir/Program.h"
#include "support/Stats.h"

#include <vector>

namespace taj {

/// One reported tainted flow.
struct Issue {
  StmtId Source = 0;
  StmtId Sink = 0;
  RuleMask Rule = rules::None;
  /// Number of dependence edges on the discovered path (flow length,
  /// §6.2.2).
  uint32_t Length = 0;
  /// Statement path from source to sink (used by LCP report grouping).
  std::vector<StmtId> Path;

  bool operator<(const Issue &O) const {
    return std::tie(Source, Sink, Rule) < std::tie(O.Source, O.Sink, O.Rule);
  }
  bool operator==(const Issue &O) const {
    return Source == O.Source && Sink == O.Sink && Rule == O.Rule;
  }
};

/// Output of one slicer run.
struct SliceRunResult {
  /// False when the configuration could not complete (CS channel-extension
  /// memory budget exceeded).
  bool Completed = true;
  std::vector<Issue> Issues;
  /// Work metric (tabulation path edges / BFS visits).
  uint64_t PathEdges = 0;
  /// Named slicing counters of the completed items: slice.items,
  /// slice.heap_rounds, slice.heap_hops, slice.carrier_hits.
  Stats Counters;
};

} // namespace taj

#endif // TAJ_SLICER_ISSUE_H
