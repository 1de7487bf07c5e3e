//===- perfbench/Suite.cpp - suite-cold and suite-warm ---------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline configuration (TAJ §7, Table 3): every pass
/// analyses all 22 benchgen apps once with hybrid-unbounded, one slicing
/// thread, through the library API. suite-cold runs without a cache;
/// suite-warm runs against a disk ArtifactCache filled during set-up, so
/// the points-to solution and the SDG are restored instead of computed.
///
/// Timed passes call TaintAnalysis::run. Traced passes (--trace 1)
/// alternate with untraced ones and call the layers' public entry points
/// one by one, each inside a harness span; the SDG build and the persist
/// work inside runHybridSlicer come from the program's own PhaseProfile.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "benchgen/AppSpec.h"
#include "benchgen/Generator.h"
#include "core/TaintAnalysis.h"
#include "persist/Cache.h"
#include "report/ReportGenerator.h"
#include "sdg/SDG.h"
#include "slicer/Slicer.h"
#include "support/Trace.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <tuple>

#include <sched.h>

using namespace perfbench;
using namespace taj;

namespace {

struct SuiteApp {
  std::string Name;
  GeneratedApp App;
  /// Input fingerprint for the artifact cache keys.
  std::string Fp;
};

/// The suite with every AppSpec::Seed offset by the workload seed: the
/// same plant counts (so the same ground-truth shape), different apps.
/// Seed 0 is the suite's default.
std::vector<std::unique_ptr<SuiteApp>> generateSuite(uint64_t Seed) {
  std::vector<std::unique_ptr<SuiteApp>> Out;
  for (AppSpec &S : benchmarkSuite()) {
    S.Seed += Seed * 0x9e3779b97f4a7c15ull;
    auto A = std::make_unique<SuiteApp>();
    A->Name = S.Name;
    A->App = generateApp(S);
    A->App.P->indexStatements();
    A->Fp = S.Name + "-" + std::to_string(S.Seed);
    Out.push_back(std::move(A));
  }
  return Out;
}

using Flow = std::tuple<StmtId, StmtId, RuleMask>;

/// What one analysis of one app produced, for the correctness gate.
struct AppOutcome {
  bool Ok = true;
  std::string Why;
  std::vector<Flow> Flows;
  uint32_t Tp = 0, Fp = 0;
};

void finishOutcome(AppOutcome &O, const SuiteApp &A,
                   const std::vector<Issue> &Issues) {
  for (const Issue &I : Issues)
    O.Flows.emplace_back(I.Source, I.Sink, I.Rule);
  std::sort(O.Flows.begin(), O.Flows.end());
  const Classification C = classify(*A.App.P, A.App.Truth, Issues);
  O.Tp = C.TruePositives;
  O.Fp = C.FalsePositives;
}

/// Renders the report a user of the scan reads; returns its size so the
/// work is observable.
size_t renderReport(const SuiteApp &A, const std::vector<Issue> &Issues,
                    const RunStatus *Status) {
  return renderReports(*A.App.P, generateReports(*A.App.P, Issues), Status)
      .size();
}

/// One app through TaintAnalysis::run (the timed path). With \p Warm the
/// points-to and SDG artifacts must both come from \p Cache.
AppOutcome analyzeUntraced(SuiteApp &A, persist::ArtifactCache *Cache,
                           bool Warm, PhaseProfile *Prof) {
  AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  C.ExternalProfile = Prof;
  if (Cache) {
    C.Cache = Cache;
    C.InputFingerprint = A.Fp;
  }
  TaintAnalysis TA(*A.App.P, C);
  AnalysisResult Res = TA.run({A.App.Root});
  AppOutcome O;
  renderReport(A, Res.Issues, &Res.Status);
  if (!Res.Completed || Res.degraded() || Res.VerifyViolations) {
    O.Ok = false;
    O.Why = A.Name + ": run not completed cleanly";
  } else if (Warm && Res.RunStats.get("persist.hit") != 2) {
    O.Ok = false;
    O.Why = A.Name + ": warm run missed the artifact cache";
  }
  finishOutcome(O, A, Res.Issues);
  return O;
}

/// Work counts and program-reported times summed over traced passes.
struct LayerSums {
  double ConstValues = 0, PtsEntries = 0, CgNodes = 0, SliceWork = 0,
         Issues = 0;
  uint64_t CacheHits = 0, CacheLookups = 0;
};

/// One app through the layers' public entry points, each in a span. This
/// mirrors TaintAnalysis::run step by step.
AppOutcome analyzeTraced(SuiteApp &A, persist::ArtifactCache *Cache,
                         Tracer &T, uint64_t Op, uint32_t Parent,
                         LayerSums &Sums) {
  const Program &P = *A.App.P;
  const AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  SpanScope AppSpan(&T, "app", Op, Parent);
  const uint32_t Id = AppSpan.id();
  RunGuard G(RunGuard::limitsFromEnv(C.guardLimits()));
  AppOutcome O;
  const uint64_t Hits0 = Cache ? Cache->hits() : 0;
  const uint64_t Lookups0 = Cache ? Cache->hits() + Cache->misses() : 0;

  std::unique_ptr<ClassHierarchy> CHA;
  {
    SpanScope S(&T, "cha.build", Op, Id);
    CHA = std::make_unique<ClassHierarchy>(P);
  }
  G.beginPhase(RunPhase::PointerAnalysis);
  ConstStringResult ConstStrings;
  {
    SpanScope S(&T, "dataflow.conststr", Op, Id);
    ConstStringOptions CSO;
    CSO.Mode = C.StringAnalysis;
    CSO.Guard = &G;
    ConstStrings = analyzeConstStrings(P, *CHA, CSO);
  }
  PointsToOptions PO = C.pointsToOptions();
  PO.Guard = &G;
  PO.ConstStrings = &ConstStrings;
  std::unique_ptr<PointsToSolver> Solver;
  if (Cache) {
    SpanScope S(&T, "persist.load", Op, Id);
    Solver = std::make_unique<PointsToSolver>(P, *CHA, PO);
    const std::string Key = persist::ArtifactCache::makeKey(
        "pts", A.Fp, C.pointsToFingerprint());
    std::optional<persist::LoadedPayload> Payload =
        Cache->load(Key, persist::ArtifactKind::PointsTo);
    bool Restored = false;
    if (Payload) {
      persist::Reader Rd(Payload->data(), Payload->size());
      Restored = persist::Access::restoreSolver(*Solver, Rd);
    }
    if (!Restored) {
      O.Ok = false;
      O.Why = A.Name + ": warm points-to restore failed";
      return O;
    }
  } else {
    SpanScope S(&T, "pointsto.solve", Op, Id);
    Solver = std::make_unique<PointsToSolver>(P, *CHA, PO);
    Solver->solve({A.App.Root});
  }

  SliceRunResult SR;
  {
    PhaseProfile Prof;
    SlicerOptions SLO = C.slicerOptions();
    SLO.Guard = &G;
    SLO.Profile = &Prof;
    if (Cache) {
      SLO.Cache = Cache;
      SLO.CacheKey = persist::ArtifactCache::makeKey("sdg", A.Fp,
                                                     C.sdgFingerprint());
    }
    SpanScope S(&T, "slicer.hybrid", Op, Id);
    const double Start = nowMs();
    SR = runHybridSlicer(P, *CHA, *Solver, SLO);
    // runHybridSlicer builds (or restores) the SDG before it slices; the
    // program's exclusive phase accounting says how long each part took.
    double At = Start;
    for (const auto &[Phase, Name] :
         {std::pair<const char *, const char *>{"sdg", "sdg.build"},
          {"persist_load", "persist.load"},
          {"persist_store", "persist.store"}}) {
      const double Ms = Prof.wallUsOf(Phase) / 1000.0;
      Tracer::Span Sp;
      Sp.Name = Name;
      Sp.StartMs = At;
      Sp.EndMs = At + Ms;
      Sp.Parent = S.id();
      Sp.Op = Op;
      Sp.FromCounter = true;
      T.add(std::move(Sp));
      At += Ms;
    }
  }
  {
    SpanScope S(&T, "report", Op, Id);
    renderReport(A, SR.Issues, nullptr);
  }
  if (!SR.Completed || G.stopped()) {
    O.Ok = false;
    O.Why = A.Name + ": traced run not completed cleanly";
  }
  Sums.ConstValues += static_cast<double>(
      ConstStrings.stats().get("conststr.values"));
  Sums.PtsEntries += static_cast<double>(Solver->stats().get("pts.entries"));
  Sums.CgNodes += Solver->callGraph().numProcessed();
  Sums.SliceWork += static_cast<double>(SR.PathEdges);
  Sums.Issues += static_cast<double>(SR.Issues.size());
  if (Cache) {
    Sums.CacheHits += Cache->hits() - Hits0;
    Sums.CacheLookups += Cache->hits() + Cache->misses() - Lookups0;
  }
  finishOutcome(O, A, SR.Issues);
  return O;
}

/// SDG nodes per pass, counted outside the timed and traced passes with
/// the graph shape runHybridSlicer builds.
double countSdgNodes(std::vector<std::unique_ptr<SuiteApp>> &Apps) {
  double Nodes = 0;
  const AnalysisConfig C = AnalysisConfig::hybridUnbounded();
  for (auto &A : Apps) {
    TaintAnalysis TA(*A->App.P, C);
    TA.run({A->App.Root});
    SDGOptions SO;
    SO.ContextExpanded = true;
    SO.WithChanParams = false;
    SO.ModelExceptionSources = C.ModelExceptionSources;
    Nodes += SDG(*A->App.P, TA.hierarchy(), TA.solver(), SO).numNodes();
  }
  return Nodes;
}

/// The CPUs this process may use (two, see main.cpp). The suites run one
/// thread; moving it to the next of these CPUs for every set-up and pass
/// samples both. On the shared VM the benchmark was tuned on, each vCPU
/// went through slow and fast phases of several seconds (a spin loop ran
/// 25-35% faster in the fast phase), independently of the other vCPU, so
/// the share of a run spent in the slow phase set the pass-time median.
class CpuRotation {
public:
  CpuRotation() {
    cpu_set_t Mask;
    CPU_ZERO(&Mask);
    if (::sched_getaffinity(0, sizeof(Mask), &Mask) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Mask))
          Cpus.push_back(C);
  }
  /// Moves the calling thread to the \p I-th CPU, round robin.
  void use(uint64_t I) const {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[I % Cpus.size()], &One);
    ::sched_setaffinity(0, sizeof(One), &One);
  }

private:
  std::vector<int> Cpus;
};

} // namespace

void perfbench::runSuite(const Args &A, bool Warm, Result &R) {
  namespace fs = std::filesystem;
  std::vector<std::unique_ptr<SuiteApp>> Apps;
  std::unique_ptr<persist::ArtifactCache> Cache;
  // The cold prefill pass of suite-warm: the reference every warm pass
  // must reproduce.
  std::vector<AppOutcome> Reference;
  std::vector<double> SetupS;
  double PrefillStoreMs = 0;

  // The median set-up time is reported; the last set-up is measured.
  const CpuRotation Rotation;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Rotation.use(static_cast<uint64_t>(Rep));
    Apps.clear();
    Cache.reset();
    Reference.clear();
    const double T0 = nowMs();
    Apps = generateSuite(A.Seed);
    if (Warm) {
      const std::string Dir = A.Work + "/cache";
      std::error_code Ec;
      fs::remove_all(Dir, Ec);
      Cache = std::make_unique<persist::ArtifactCache>(Dir);
      PhaseProfile Prof;
      for (auto &App : Apps)
        Reference.push_back(analyzeUntraced(*App, Cache.get(), false, &Prof));
      PrefillStoreMs = Prof.wallUsOf("persist_store") / 1000.0;
      if (Cache->stores() != 2 * Apps.size())
        R.gateFailure("suite-warm prefill stored " +
                      std::to_string(Cache->stores()) +
                      " artifacts, expected " +
                      std::to_string(2 * Apps.size()));
    }
    SetupS.push_back((nowMs() - T0) / 1000.0);
  }

  Tracer T;
  LayerSums Sums;
  std::vector<OpSample> PassMs;
  std::vector<double> TracedMs;
  const double RunMs = A.Seconds * 1000.0;
  const double Start = nowMs();
  for (uint64_t Pass = 0; Pass < 2 || nowMs() - Start < RunMs; ++Pass) {
    Rotation.use(Pass);
    const bool Traced = A.Trace && Pass % 2 == 1;
    std::vector<size_t> Order(Apps.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::mt19937_64 Rng(A.Seed * 1000003u + Pass);
    std::shuffle(Order.begin(), Order.end(), Rng);

    std::vector<AppOutcome> Out(Apps.size());
    const double P0 = nowMs();
    {
      SpanScope PassSpan(Traced ? &T : nullptr, "pass", Pass);
      for (size_t I : Order)
        Out[I] = Traced ? analyzeTraced(*Apps[I], Cache.get(), T, Pass,
                                        PassSpan.id(), Sums)
                        : analyzeUntraced(*Apps[I], Cache.get(), Warm,
                                          nullptr);
    }
    const double Ms = nowMs() - P0;

    if (Reference.empty())
      Reference = Out;
    bool Ok = true;
    std::string Why;
    for (size_t I = 0; I < Apps.size() && Ok; ++I) {
      if (!Out[I].Ok) {
        Ok = false;
        Why = Out[I].Why;
      } else if (Out[I].Flows != Reference[I].Flows ||
                 Out[I].Tp != Reference[I].Tp ||
                 Out[I].Fp != Reference[I].Fp) {
        Ok = false;
        Why = Apps[I]->Name + ": pass " + std::to_string(Pass) +
              " differs from the reference (source, sink, rule) set";
      }
    }
    R.op(Ok, Why);
    // A failed pass misses any latency bound: it enters the samples as
    // the whole run length.
    if (Traced)
      TracedMs.push_back(Ok ? Ms : RunMs);
    else
      PassMs.push_back({nowMs(), Ok ? Ms : RunMs, Ok});
  }
  const double End = nowMs();

  uint32_t Tp = 0, Fp = 0;
  for (const AppOutcome &O : Reference) {
    Tp += O.Tp;
    Fp += O.Fp;
  }
  if (A.ExpectTp >= 0 && Tp != static_cast<uint64_t>(A.ExpectTp))
    R.gateFailure("issues_tp " + std::to_string(Tp) + " != expected " +
                  std::to_string(A.ExpectTp));

  if (!A.Trace) {
    emitEndToEnd(R, SetupS, PassMs, Start, End, selfPeakRssMb(), Tp, 1,
                 Tp + Fp);
    return;
  }

  const double N = static_cast<double>(TracedMs.size());
  std::map<std::string, double> Self = T.selfMs();
  auto PerPass = [&](const char *Span) { return Self[Span] / N; };
  LayerMetrics L;
  L.set("cha.build_ms", PerPass("cha.build"));
  L.set("dataflow.conststr_ms", PerPass("dataflow.conststr"));
  L.set("pointsto.solve_ms", PerPass("pointsto.solve"));
  L.set("sdg.build_ms", PerPass("sdg.build"));
  L.set("slicer.hybrid_ms", PerPass("slicer.hybrid"));
  L.set("report.ms", PerPass("report"));
  L.set("persist.load_ms", PerPass("persist.load"));
  L.set("persist.store_ms", PrefillStoreMs);
  L.set("persist.hit_ratio", Sums.CacheLookups ? double(Sums.CacheHits) /
                                                     double(Sums.CacheLookups)
                                               : 0.0);
  L.set("dataflow.values", Sums.ConstValues / N);
  L.set("pointsto.entries", Sums.PtsEntries / N);
  L.set("callgraph.nodes", Sums.CgNodes / N);
  L.set("slicer.work", Sums.SliceWork / N);
  L.set("slicer.issues", Sums.Issues / N);
  L.set("sdg.nodes", countSdgNodes(Apps));
  L.set("trace.overhead_ms", median(TracedMs) - medianMs(PassMs));
  L.emit(R);
  writeTrace(T, A, R);
}
