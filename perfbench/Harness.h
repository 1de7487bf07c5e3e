//===- perfbench/Harness.h - Shared benchmark plumbing ---------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repo benchmark shares: the command line,
/// the result record (correctness gate, failure accounting, metrics), the
/// in-memory span tracer of the traced run, sample statistics, and child
/// process handling for the two taj-cli workloads.
///
/// Timing is taken from outside the program: the harness times calls into
/// the modules' public functions and the taj-cli processes. Per-layer
/// numbers the harness cannot bracket itself come from the counters the
/// program already reports (AnalysisResult::RunStats, the server's
/// response StatsJson, taj-cli --stats-json), recorded unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERFBENCH_HARNESS_H
#define TAJ_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "support/Stats.h"

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Root of the checkout (examples/webapp.taj lives under it).
  std::string Root = ".";
  /// taj-cli binary for the serve-mix and batch-jobs workloads.
  std::string Cli;
  /// Private working directory for this run (sockets, caches, inputs).
  std::string Work;
  /// Reference flows of one copy of examples/webapp.taj.
  std::string Expected;
  /// Suite workloads: the classify() true-positive total every pass must
  /// reproduce (-1 = only pass-to-pass agreement is checked).
  int64_t ExpectTp = -1;
};

double nowMs();
/// Linear-interpolated quantile (\p Q in [0,1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
/// Median of \p V; 0 when empty.
double median(std::vector<double> V);

/// One run's outcome: the correctness gate, failure accounting and the
/// metrics printed as the last line of stdout.
class Result {
public:
  /// Counts one attempted operation; \p Ok false counts it as failed and
  /// trips the gate with \p Why.
  void op(bool Ok, const std::string &Why = "");
  /// Trips the correctness gate without counting an operation.
  void gateFailure(const std::string &Why);
  void metric(const std::string &Name, double Value, const std::string &Unit);

  bool correct() const { return Correct; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  std::string json() const;

private:
  mutable std::mutex Mu;
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0, Reported = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
};

/// In-memory span recorder of the traced run. Spans of one operation (a
/// suite pass, a served request, a batch invocation) share an Op id; each
/// span names its parent (0 = none). Spans are written out only at the
/// end of the run.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartMs = 0, EndMs = 0;
    uint32_t Parent = 0;
    uint64_t Op = 0;
    /// True for a span laid out from a counter the program reported (a
    /// `phase.*` total) rather than timed by the harness.
    bool FromCounter = false;
  };

  /// Opens a span starting now and returns its id (ids start at 1).
  uint32_t begin(const char *Name, uint64_t Op, uint32_t Parent);
  /// Closes span \p Id now.
  void end(uint32_t Id);
  /// Records a finished span and returns its id.
  uint32_t add(Span S);
  /// Self time of every span name, summed: a span's duration minus the
  /// time its child spans cover.
  std::map<std::string, double> selfMs() const;
  /// Writes every span as Chrome trace-event JSON to \p Path.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span around one layer call; a no-op when \p T is null.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, uint64_t Op, uint32_t Parent = 0);
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  /// The span's id (0 when not tracing), for child spans.
  uint32_t id() const { return Id; }

private:
  Tracer *T;
  uint32_t Id;
};

/// Per-layer metric table: every name the traced run reports, with its
/// unit. Workloads fill in what they measure; the rest reads 0.
class LayerMetrics {
public:
  LayerMetrics();
  void set(const std::string &Name, double V);
  void emit(Result &R) const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
};

/// Sum of the program's `phase.<name>_us` wall-time counters (every
/// phase the PhaseProfile of src/support/Trace.h can report), in
/// milliseconds.
double phaseTotalMs(const taj::Stats &Stats);

/// One timed operation: when it completed (nowMs()) and its latency
/// (the run length when it failed).
struct OpSample {
  double EndMs = 0, Ms = 0;
  bool Ok = false;
};

/// Median latency of \p Ops; 0 when empty.
double medianMs(const std::vector<OpSample> &Ops);

/// Prints every end-to-end metric of a timed run that started at
/// \p StartMs and ended at \p EndMs. \p Ops holds the operations in
/// completion order; \p Matched reference flows were found among
/// \p Reported flows over \p Copies app copies.
///
/// The timed metrics come from the quieter part of the run. The shared
/// host steals 15-35% of both benchmark CPUs in phases of seconds, and
/// how much of a run such phases cover varied from run to run. So the
/// operations are cut, in completion order, into windows of at least 20
/// operations and 1 s; op_ms.p50/p90 are the lower quartile over the
/// windows of each window's p50/p90, and ops_per_s is the upper quartile
/// of the windows' Ok operations per second. A run with fewer than 8
/// windows (a suite pass takes about a third of a second) reports the
/// whole run's quantiles and rate instead.
void emitEndToEnd(Result &R, const std::vector<double> &SetupS,
                  const std::vector<OpSample> &Ops, double StartMs,
                  double EndMs, double PeakRssMb, double Matched,
                  double Copies, double Reported);

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();
/// Peak resident set of the largest reaped child process (and the
/// children it reaped), in MiB.
double childrenPeakRssMb();

/// Spawns \p Argv (argv[0] is the program path) with stdout redirected to
/// \p StdoutPath ("" = inherit) and TMPDIR set to \p TmpDir. Returns the
/// pid, or -1.
pid_t spawn(const std::vector<std::string> &Argv, const std::string &StdoutPath,
            const std::string &TmpDir);
/// Waits for \p Pid at most \p TimeoutMs; SIGKILLs and reaps it on expiry
/// (returns -1 then).
int waitExitFor(pid_t Pid, double TimeoutMs);

/// Children from spawn() stay registered until reaped; whatever is still
/// registered is killed and reaped on every exit path (normal return,
/// gate failure, fatal signal). Call untrackChild() after reaping a child
/// with a bare waitpid().
void untrackChild(pid_t Pid);
void killTrackedChildren();
void installExitHandlers();

/// Writes the traced run's spans next to the run directory
/// (.perfbench_work/trace-<workload>-seed<n>.json); a write failure trips
/// the gate.
void writeTrace(const Tracer &T, const Args &A, Result &R);

bool readFile(const std::string &Path, std::string &Out);
bool writeFile(const std::string &Path, const std::string &Data);
/// 64-bit FNV-1a of \p S.
uint64_t fnv(const std::string &S);

} // namespace perfbench

#endif // TAJ_PERFBENCH_HARNESS_H
