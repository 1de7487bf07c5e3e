//===- tests/slicing_test.cpp - Per-source slicing engine -----------------===//
//
// The per-source slicing engine slices one (rule, source) item at a time
// on one reused state and merges the items' issues deterministically.
// This suite pins that the reused dense state leaks nothing between items,
// that heap rounds expand stores in program order, that governed runs
// (fault injection, deadlines) keep only completed items and so stay
// strictly underapproximate, the CI slicer's §6.2.1 heap budget, and the
// slice.* counters.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "frontend/Parser.h"
#include "ir/Verifier.h"
#include "model/BuiltinLibrary.h"
#include "model/Entrypoints.h"
#include "persist/Cache.h"
#include "report/ReportGenerator.h"
#include "slicer/SlicerCommon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

using namespace taj;

namespace {

/// A workload with heap-mediated flows, taint carriers, a sanitizer and
/// several sources, so every merge path (direct sinks, carrier sinks,
/// cross-source duplicates) is exercised.
const char *AppSource = R"(
class Holder extends Object {
  field v: String;
  method set(this: Holder, s: String): void { this.v = s; }
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response, db: Database): void [entry] {
    t1 = req.getParameter("name");
    t2 = req.getParameter("query");
    t3 = req.getParameter("safe");
    h = new Holder;
    h.set(t1);
    u = h.v;
    w = resp.getWriter();
    w.println(u);
    w.println(t1);
    db.executeQuery(t2);
    e = Encoder.encode(t3);
    w.println(e);
  }
}
)";

struct Pipeline {
  Program P;
  MethodId Root = InvalidId;

  explicit Pipeline(const std::string &Src) {
    installBuiltinLibrary(P);
    std::vector<std::string> Errors;
    bool Ok = parseTaj(P, Src, &Errors);
    EXPECT_TRUE(Ok) << (Errors.empty() ? "?" : Errors.front());
    std::vector<std::string> VErrors = verifyProgram(P);
    EXPECT_TRUE(VErrors.empty()) << (VErrors.empty() ? "" : VErrors.front());
    Root = synthesizeEntrypointDriver(P);
  }

  AnalysisResult run(AnalysisConfig C) {
    TaintAnalysis TA(P, std::move(C));
    return TA.run({Root});
  }

  std::string render(const AnalysisResult &R) {
    return renderReports(P, generateReports(P, R.Issues), &R.Status);
  }
};

using FlowKey = std::tuple<StmtId, StmtId, RuleMask>;

std::set<FlowKey> flowSet(const AnalysisResult &R) {
  std::set<FlowKey> S;
  for (const Issue &I : R.Issues)
    S.insert({I.Source, I.Sink, I.Rule});
  return S;
}

/// Full structural equality, not just the (source, sink, rule) key:
/// lengths and reconstructed paths must match too.
void expectIdenticalIssues(const std::vector<Issue> &A,
                           const std::vector<Issue> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    SCOPED_TRACE("issue " + std::to_string(I));
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].Sink, B[I].Sink);
    EXPECT_EQ(A[I].Rule, B[I].Rule);
    EXPECT_EQ(A[I].Length, B[I].Length);
    EXPECT_EQ(A[I].Path, B[I].Path);
  }
}

AnalysisConfig configFor(SlicerKind K) {
  switch (K) {
  case SlicerKind::Hybrid:
    return AnalysisConfig::hybridUnbounded();
  case SlicerKind::CS:
    return AnalysisConfig::cs();
  case SlicerKind::CI:
    return AnalysisConfig::ci();
  }
  return AnalysisConfig::hybridUnbounded();
}

const char *kindName(SlicerKind K) {
  switch (K) {
  case SlicerKind::Hybrid:
    return "hybrid";
  case SlicerKind::CS:
    return "cs";
  case SlicerKind::CI:
    return "ci";
  }
  return "?";
}

GeneratedApp generatedApp() {
  AppSpec Spec;
  Spec.Name = "parallel-medium";
  Spec.Seed = 11;
  Spec.Plants.TpDirect = 12;
  Spec.Plants.TpWrapped = 8;
  Spec.Plants.TpMap = 6;
  Spec.Plants.Sanitized = 6;
  Spec.Plants.FillerMethods = 60;
  return generateApp(Spec);
}

GeneratedApp suiteApp(const std::string &Name) {
  for (const AppSpec &S : benchmarkSuite())
    if (S.Name == Name)
      return generateApp(S);
  ADD_FAILURE() << "no suite app " << Name;
  return generateApp(benchmarkSuite().front());
}

TEST(ParallelSlicing, ReusedWorkerStateMatchesFreshStatePerItem) {
  // The engine slices every item on one SliceWorkerState: its dense slice
  // arrays are reset in O(reached) and its per-rule Tabulations keep their
  // summaries. Neither may leak into the next item: every item's issues
  // (Length and Path included) must be the same in forward order, in
  // reverse order, and on a fresh state per item.
  GeneratedApp App = suiteApp("GridSphere");
  ClassHierarchy CHA(*App.P);
  PointsToSolver Solver(*App.P, CHA);
  Solver.solve({App.Root});
  SlicerOptions Opts;
  SDGOptions SO; // the hybrid slicer's graph
  SO.ContextExpanded = true;
  SO.WithChanParams = false;
  persist::SdgArtifacts A = persist::loadOrBuildSdg(
      *App.P, CHA, Solver, SO, Opts.NestedTaintDepth, nullptr, "");
  const std::vector<slicer_detail::SliceItem> Items =
      slicer_detail::collectSliceItems(*A.G);
  const std::vector<uint32_t> StorePos = slicer_detail::storePositions(*A.G);
  ASSERT_GE(Items.size(), 100u);

  enum class Order { Forward, Reverse, FreshPerItem };
  auto SliceAll = [&](Order O) {
    std::vector<std::vector<Issue>> Bufs(Items.size());
    slicer_detail::SliceWorkerState Shared;
    slicer_detail::SliceCounts C;
    for (size_t K = 0; K < Items.size(); ++K) {
      size_t I = O == Order::Reverse ? Items.size() - 1 - K : K;
      slicer_detail::SliceWorkerState Fresh;
      uint64_t Edges = 0;
      slicer_detail::sliceOneHybrid(*A.G, *A.HE, StorePos, Opts,
                                    O == Order::FreshPerItem ? Fresh : Shared,
                                    Items[I], Bufs[I], Edges, C);
    }
    EXPECT_GT(C.HeapHops, 0u);
    EXPECT_GT(C.CarrierHits, 0u);
    return Bufs;
  };
  const std::vector<std::vector<Issue>> Fwd = SliceAll(Order::Forward);
  const std::vector<std::vector<Issue>> Rev = SliceAll(Order::Reverse);
  const std::vector<std::vector<Issue>> Fresh = SliceAll(Order::FreshPerItem);
  size_t Total = 0;
  for (size_t I = 0; I < Items.size(); ++I) {
    SCOPED_TRACE("item " + std::to_string(I));
    expectIdenticalIssues(Fresh[I], Fwd[I]);
    expectIdenticalIssues(Fresh[I], Rev[I]);
    Total += Fresh[I].size();
  }
  EXPECT_GT(Total, 0u);

  // The forward buffers, merged as the engine merges them, are exactly
  // what the slicer reports.
  std::set<Issue> Dedup;
  std::vector<Issue> Merged;
  for (const std::vector<Issue> &Buf : Fwd)
    for (const Issue &Iss : Buf)
      if (Dedup.insert(Iss).second)
        Merged.push_back(Iss);
  std::sort(Merged.begin(), Merged.end());
  expectIdenticalIssues(runHybridSlicer(*App.P, CHA, Solver, Opts).Issues,
                        Merged);
}

TEST(ParallelSlicing, HeapRoundExpandsStoresInStoreOrder) {
  // Two stores into h.v, both reached in the first slice round: `h.v = t`
  // at distance 1, `h.v = s` later (through a call). Each hop seeds the
  // same load u = h.v, and the first seed in expansion order fixes its
  // distance. The round expands the stores in G.storeNodes() (program)
  // order, not in the order the slice reached them, so swapping the two
  // stores in the source changes the reported flow length.
  auto LengthWith = [](const char *Stores) {
    std::string Src = R"(
class Holder extends Object {
  field v: String;
}
class App extends Servlet {
  method id(this: App, x: String): String { return x; }
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    h = new Holder;
    s = this.id(t);
)";
    Src += Stores;
    Src += R"(
    u = h.v;
    w = resp.getWriter();
    w.println(u);
  }
}
)";
    Pipeline PL(Src);
    AnalysisResult R = PL.run(AnalysisConfig::hybridUnbounded());
    EXPECT_FALSE(R.Issues.empty());
    uint32_t Len = 0;
    for (const Issue &I : R.Issues)
      if (I.Rule == rules::XSS)
        Len = I.Length;
    return Len;
  };
  const uint32_t FarFirst = LengthWith("    h.v = s;\n    h.v = t;\n");
  const uint32_t NearFirst = LengthWith("    h.v = t;\n    h.v = s;\n");
  EXPECT_GT(NearFirst, 0u);
  EXPECT_GT(FarFirst, NearFirst);
}

TEST(ParallelSlicing, SliceCountersAreThreadCountInvariant) {
  GeneratedApp App = generatedApp();
  const char *Names[] = {"slice.items", "slice.heap_rounds",
                         "slice.heap_hops", "slice.carrier_hits"};
  for (SlicerKind K : {SlicerKind::Hybrid, SlicerKind::CI}) {
    SCOPED_TRACE(kindName(K));
    TaintAnalysis T1(*App.P, configFor(K));
    AnalysisResult R1 = T1.run({App.Root});
    for (const char *N : Names) {
      SCOPED_TRACE(N);
      EXPECT_NE(R1.RunStats.toJson().find(std::string("\"") + N + "\":"),
                std::string::npos);
    }
    EXPECT_GT(R1.RunStats.get("slice.items"), 0u);
    EXPECT_GT(R1.RunStats.get("slice.heap_hops"), 0u);
    EXPECT_GT(R1.RunStats.get("slice.carrier_hits"), 0u);
    if (K == SlicerKind::Hybrid) {
      EXPECT_GT(R1.RunStats.get("slice.heap_rounds"), 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Governed runs: fault injection and deadlines
//===----------------------------------------------------------------------===//

TEST(ParallelSlicing, FaultInjectionSweepIsDeterministicPreSlicing) {
  Pipeline PL(AppSource);
  AnalysisResult Base = PL.run(AnalysisConfig::hybridUnbounded());
  ASSERT_FALSE(Base.degraded());
  uint64_t Total = Base.RunStats.get("guard.checkpoints");
  ASSERT_GT(Total, 0u);
  std::set<FlowKey> BaseFlows = flowSet(Base);

  for (uint64_t N = 1; N <= Total + 2; ++N) {
    SCOPED_TRACE("fail-at=" + std::to_string(N));
    AnalysisConfig C1 = AnalysisConfig::hybridUnbounded();
    C1.FailAtCheckpoint = N;
    AnalysisResult R1 = PL.run(C1);
    AnalysisResult R2 = PL.run(std::move(C1));

    // Item-completion merge: a cutoff only drops flows relative to the
    // unbounded baseline, never invents them.
    for (const FlowKey &K : flowSet(R1))
      EXPECT_TRUE(BaseFlows.count(K));

    // The same cutoff twice gives the same result, banner included.
    expectIdenticalIssues(R1.Issues, R2.Issues);
    EXPECT_EQ(PL.render(R1), PL.render(R2));
  }
}

TEST(ParallelSlicing, MidSlicingFaultKeepsOnlyCompletedSources) {
  // Trip the guard just after slicing begins: with the item-completion
  // merge every reported issue comes from a source whose slice finished,
  // so the partial result is a subset of the clean run — and issue
  // vectors stay internally consistent (sorted, deduped).
  Pipeline PL(AppSource);
  AnalysisConfig C0 = AnalysisConfig::hybridUnbounded();
  AnalysisResult Base = PL.run(std::move(C0));
  std::set<FlowKey> BaseFlows = flowSet(Base);
  uint64_t Total = Base.RunStats.get("guard.checkpoints");

  for (uint64_t N = Total / 2; N <= Total; N += 3) {
    AnalysisConfig C = AnalysisConfig::hybridUnbounded();
    C.FailAtCheckpoint = N;
    AnalysisResult R = PL.run(std::move(C));
    std::set<FlowKey> Flows = flowSet(R);
    for (const FlowKey &K : Flows)
      EXPECT_TRUE(BaseFlows.count(K)) << "fail-at=" << N;
    EXPECT_EQ(Flows.size(), R.Issues.size()) << "duplicate issues survived";
    EXPECT_TRUE(std::is_sorted(R.Issues.begin(), R.Issues.end()));
  }
}

TEST(ParallelSlicing, DeadlineCutoffUnderThreadsStaysUnderapproximate) {
  GeneratedApp App = generatedApp();
  AnalysisConfig C0 = AnalysisConfig::hybridUnbounded();
  TaintAnalysis TB(*App.P, std::move(C0));
  AnalysisResult Base = TB.run({App.Root});
  ASSERT_FALSE(Base.degraded());
  std::set<FlowKey> BaseFlows = flowSet(Base);

  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.DeadlineMs = 0.001; // expired by the guard's first poll
  TaintAnalysis TA(*App.P, std::move(C));
  AnalysisResult R = TA.run({App.Root});
  ASSERT_TRUE(R.degraded());
  const PhaseReport *PR = R.Status.firstDegraded();
  ASSERT_NE(PR, nullptr);
  EXPECT_EQ(PR->Reason, CutoffReason::Deadline);
  for (const FlowKey &K : flowSet(R))
    EXPECT_TRUE(BaseFlows.count(K));
}

//===----------------------------------------------------------------------===//
// CI heap budget (§6.2.1)
//===----------------------------------------------------------------------===//

TEST(ParallelSlicing, CiSlicerHonorsHeapTransitionBudget) {
  // Two chained heap hops: src -> a.v -> load -> b.v -> load -> sink.
  // An unbounded CI run follows both; MaxHeapTransitions=1 spends its one
  // expansion on the first store and never reaches the sink.
  Pipeline PL(R"(
class Holder extends Object {
  field v: String;
}
class App extends Servlet {
  method doGet(this: App, req: Request, resp: Response): void [entry] {
    t = req.getParameter("name");
    a = new Holder;
    b = new Holder;
    a.v = t;
    x = a.v;
    b.v = x;
    y = b.v;
    w = resp.getWriter();
    w.println(y);
  }
}
)");
  AnalysisConfig Unbounded = AnalysisConfig::ci();
  AnalysisResult RU = PL.run(std::move(Unbounded));
  // println is both an XSS and an InfoLeak sink: one flow, two issues.
  EXPECT_EQ(RU.Issues.size(), 2u) << "two-hop heap flow should be found";

  AnalysisConfig Tight = AnalysisConfig::ci();
  Tight.MaxHeapTransitions = 1;
  AnalysisResult RT = PL.run(std::move(Tight));
  EXPECT_TRUE(RT.Issues.empty())
      << "budget of one store expansion cannot cross two heap hops";
}

TEST(ParallelSlicing, CiBudgetIsSubsetOfUnboundedOnGeneratedApp) {
  GeneratedApp App = generatedApp();
  AnalysisConfig C0 = AnalysisConfig::ci();
  TaintAnalysis TB(*App.P, std::move(C0));
  AnalysisResult Base = TB.run({App.Root});
  std::set<FlowKey> BaseFlows = flowSet(Base);

  for (uint32_t Budget : {1u, 2u, 8u, 64u}) {
    SCOPED_TRACE("budget=" + std::to_string(Budget));
    AnalysisConfig C = AnalysisConfig::ci();
    C.MaxHeapTransitions = Budget;
    TaintAnalysis TA(*App.P, std::move(C));
    AnalysisResult R = TA.run({App.Root});
    for (const FlowKey &K : flowSet(R))
      EXPECT_TRUE(BaseFlows.count(K));
  }
}

} // namespace
