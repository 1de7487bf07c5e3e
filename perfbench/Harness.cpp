//===- perfbench/Harness.cpp -----------------------------------*- C++ -*-===//

#include "Harness.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

double perfbench::nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::op(bool Ok, const std::string &Why) {
  std::lock_guard<std::mutex> L(Mu);
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  Correct = false;
  if (Reported++ < 10)
    std::fprintf(stderr, "perfbench: failed operation: %s\n", Why.c_str());
}

void Result::gateFailure(const std::string &Why) {
  std::lock_guard<std::mutex> L(Mu);
  Correct = false;
  if (Reported++ < 10)
    std::fprintf(stderr, "perfbench: correctness gate: %s\n", Why.c_str());
}

void Result::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  std::lock_guard<std::mutex> L(Mu);
  Metrics.push_back({Name, {Value, Unit}});
}

std::string Result::json() const {
  std::lock_guard<std::mutex> L(Mu);
  std::ostringstream O;
  O.precision(17);
  O << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const auto &[Name, VU] = Metrics[I];
    O << (I ? ", " : "") << '"' << Name << "\": {\"value\": " << VU.first
      << ", \"unit\": \"" << VU.second << "\"}";
  }
  O << "}}";
  return O.str();
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

uint32_t Tracer::begin(const char *Name, uint64_t Op, uint32_t Parent) {
  Span S;
  S.Name = Name;
  S.StartMs = nowMs();
  S.Parent = Parent;
  S.Op = Op;
  return add(std::move(S));
}

void Tracer::end(uint32_t Id) {
  const double Now = nowMs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[Id - 1].EndMs = Now;
}

uint32_t Tracer::add(Span S) {
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back(std::move(S));
  return static_cast<uint32_t>(Spans.size());
}

std::map<std::string, double> Tracer::selfMs() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<double> ChildMs(Spans.size() + 1, 0.0);
  for (const Span &S : Spans)
    if (S.Parent)
      ChildMs[S.Parent] += S.EndMs - S.StartMs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Spans[I].EndMs - Spans[I].StartMs - ChildMs[I + 1];
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  std::ostringstream O;
  O.precision(15);
  O << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    O << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Op
      << ",\"ts\":" << S.StartMs * 1000.0
      << ",\"dur\":" << (S.EndMs - S.StartMs) * 1000.0
      << ",\"args\":{\"id\":" << I + 1 << ",\"parent\":" << S.Parent
      << ",\"op\":" << S.Op
      << ",\"from_counter\":" << (S.FromCounter ? "true" : "false") << "}}";
  }
  O << "\n]}\n";
  return writeFile(Path, O.str());
}

SpanScope::SpanScope(Tracer *T, const char *Name, uint64_t Op,
                     uint32_t Parent)
    : T(T), Id(T ? T->begin(Name, Op, Parent) : 0) {}

SpanScope::~SpanScope() {
  if (T)
    T->end(Id);
}

//===----------------------------------------------------------------------===//
// Per-layer metric table
//===----------------------------------------------------------------------===//

LayerMetrics::LayerMetrics() {
  // Layer names are the module names under src/. Times are per operation
  // (suite pass, served request, batch invocation); counts are per
  // operation except server.busy and supervise.retried, which are run
  // totals.
  static const char *const Table[][2] = {
      {"frontend.parse_ms", "ms"},     {"dataflow.conststr_ms", "ms"},
      {"dataflow.values", "count"},    {"cha.build_ms", "ms"},
      {"pointsto.solve_ms", "ms"},     {"pointsto.entries", "count"},
      {"callgraph.nodes", "count"},    {"sdg.build_ms", "ms"},
      {"sdg.nodes", "count"},          {"slicer.hybrid_ms", "ms"},
      {"slicer.work", "count"},        {"slicer.issues", "count"},
      {"report.ms", "ms"},             {"persist.load_ms", "ms"},
      {"persist.store_ms", "ms"},      {"persist.hit_ratio", "ratio"},
      {"server.overhead_ms", "ms"},    {"server.hot_hit_ratio", "ratio"},
      {"server.busy", "count"},        {"supervise.overhead_ms", "ms"},
      {"supervise.spawned", "count"},  {"supervise.retried", "count"},
      {"trace.overhead_ms", "ms"},
  };
  for (const auto &Row : Table)
    Rows.push_back({Row[0], {0.0, Row[1]}});
}

void LayerMetrics::set(const std::string &Name, double V) {
  for (auto &Row : Rows)
    if (Row.first == Name) {
      Row.second.first = V;
      return;
    }
  std::fprintf(stderr, "perfbench: internal error: unknown layer metric %s\n",
               Name.c_str());
  std::abort();
}

void LayerMetrics::emit(Result &R) const {
  for (const auto &Row : Rows)
    R.metric(Row.first, Row.second.first, Row.second.second);
}

//===----------------------------------------------------------------------===//
// Program-reported counters and end-to-end metrics
//===----------------------------------------------------------------------===//

double perfbench::phaseTotalMs(const taj::Stats &Stats) {
  static const char *const Phases[] = {
      "other",    "analysis",     "parse",         "conststr",
      "pointsto", "sdg",          "slicing",       "report",
      "verify",   "persist_load", "persist_store",
  };
  double Us = 0;
  for (const char *P : Phases)
    Us += static_cast<double>(Stats.get(std::string("phase.") + P + "_us"));
  return Us / 1000.0;
}

double perfbench::medianMs(const std::vector<OpSample> &Ops) {
  std::vector<double> Ms;
  for (const OpSample &S : Ops)
    Ms.push_back(S.Ms);
  return median(std::move(Ms));
}

namespace {
/// The window rule of emitEndToEnd.
constexpr size_t MinWindowOps = 20, MinWindows = 8;
constexpr double MinWindowMs = 1000;

struct Window {
  std::vector<double> Ms;
  double OkOps = 0, WallMs = 0;
};

/// Cuts \p Ops, in completion order, into windows of at least
/// MinWindowOps operations and MinWindowMs of wall time, the first one
/// counted from \p StartMs; a shorter tail joins the last window.
std::vector<Window> cutWindows(const std::vector<OpSample> &Ops,
                               double StartMs) {
  std::vector<Window> Out;
  Window Cur;
  double From = StartMs;
  for (const OpSample &S : Ops) {
    Cur.Ms.push_back(S.Ms);
    Cur.OkOps += S.Ok;
    Cur.WallMs = S.EndMs - From;
    if (Cur.Ms.size() >= MinWindowOps && Cur.WallMs >= MinWindowMs) {
      From = S.EndMs;
      Out.push_back(std::move(Cur));
      Cur = Window();
    }
  }
  if (Cur.Ms.empty())
    return Out;
  if (Out.empty())
    return {std::move(Cur)};
  Window &Last = Out.back();
  Last.Ms.insert(Last.Ms.end(), Cur.Ms.begin(), Cur.Ms.end());
  Last.OkOps += Cur.OkOps;
  Last.WallMs += Cur.WallMs;
  return Out;
}
} // namespace

void perfbench::emitEndToEnd(Result &R, const std::vector<double> &SetupS,
                             const std::vector<OpSample> &Ops, double StartMs,
                             double EndMs, double PeakRssMb, double Matched,
                             double Copies, double Reported) {
  R.metric("setup_s", median(SetupS), "s");
  const std::vector<Window> Ws = cutWindows(Ops, StartMs);
  if (Ws.size() < MinWindows) {
    std::vector<double> Ms;
    double OkOps = 0;
    for (const OpSample &S : Ops) {
      Ms.push_back(S.Ms);
      OkOps += S.Ok;
    }
    R.metric("op_ms.p50", quantile(Ms, 0.5), "ms");
    R.metric("op_ms.p90", quantile(Ms, 0.9), "ms");
    R.metric("ops_per_s", OkOps / ((EndMs - StartMs) / 1000.0), "1/s");
  } else {
    std::vector<double> P50, P90, Rate;
    for (const Window &W : Ws) {
      P50.push_back(quantile(W.Ms, 0.5));
      P90.push_back(quantile(W.Ms, 0.9));
      Rate.push_back(W.OkOps / (W.WallMs / 1000.0));
    }
    R.metric("op_ms.p50", quantile(P50, 0.25), "ms");
    R.metric("op_ms.p90", quantile(P90, 0.25), "ms");
    R.metric("ops_per_s", quantile(Rate, 0.75), "1/s");
  }
  R.metric("peak_rss_mb", PeakRssMb, "MB");
  R.metric("ok_share",
           static_cast<double>(R.attempted() - R.failed()) /
               static_cast<double>(R.attempted()),
           "share");
  // True flows found per app copy, and the share of reported flows that
  // are true flows.
  R.metric("issues_tp", Copies ? Matched / Copies : 0.0, "count");
  R.metric("precision", Reported ? Matched / Reported : 0.0, "ratio");
}

//===----------------------------------------------------------------------===//
// Processes
//===----------------------------------------------------------------------===//

double perfbench::selfPeakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

double perfbench::childrenPeakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_CHILDREN, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

namespace {
std::mutex ChildMu;
std::set<pid_t> &liveChildren() {
  static std::set<pid_t> S;
  return S;
}
} // namespace

pid_t perfbench::spawn(const std::vector<std::string> &Argv,
                       const std::string &StdoutPath,
                       const std::string &TmpDir) {
  std::vector<char *> CArgv;
  std::vector<std::string> Store = Argv;
  for (std::string &S : Store)
    CArgv.push_back(S.data());
  CArgv.push_back(nullptr);
  std::vector<std::string> EnvStore;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "TMPDIR=", 7) != 0)
      EnvStore.push_back(*E);
  EnvStore.push_back("TMPDIR=" + TmpDir);
  std::vector<char *> Envp;
  for (std::string &S : EnvStore)
    Envp.push_back(S.data());
  Envp.push_back(nullptr);
  std::lock_guard<std::mutex> L(ChildMu);
  const pid_t Pid = ::fork();
  if (Pid != 0) {
    if (Pid > 0)
      liveChildren().insert(Pid);
    return Pid;
  }
  if (!StdoutPath.empty()) {
    const int Fd = ::open(StdoutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (Fd < 0)
      ::_exit(126);
    ::dup2(Fd, STDOUT_FILENO);
    ::close(Fd);
  }
  ::execve(CArgv[0], CArgv.data(), Envp.data());
  ::_exit(127);
}

namespace {
int decodeStatus(int St) {
  if (WIFEXITED(St))
    return WEXITSTATUS(St);
  if (WIFSIGNALED(St))
    return 128 + WTERMSIG(St);
  return -1;
}

/// Waits for \p Pid; returns its exit code, 128+signal, or -1.
int waitExit(pid_t Pid) {
  int St = 0;
  pid_t R;
  do {
    R = ::waitpid(Pid, &St, 0);
  } while (R < 0 && errno == EINTR);
  untrackChild(Pid);
  return R == Pid ? decodeStatus(St) : -1;
}
} // namespace

int perfbench::waitExitFor(pid_t Pid, double TimeoutMs) {
  const double Deadline = nowMs() + TimeoutMs;
  int St = 0;
  while (nowMs() < Deadline) {
    const pid_t R = ::waitpid(Pid, &St, WNOHANG);
    if (R == Pid) {
      untrackChild(Pid);
      return decodeStatus(St);
    }
    if (R < 0 && errno != EINTR) {
      untrackChild(Pid);
      return -1;
    }
    ::usleep(1000);
  }
  ::kill(Pid, SIGKILL);
  waitExit(Pid);
  return -1;
}

void perfbench::untrackChild(pid_t Pid) {
  std::lock_guard<std::mutex> L(ChildMu);
  liveChildren().erase(Pid);
}

void perfbench::killTrackedChildren() {
  std::set<pid_t> Kids;
  {
    std::lock_guard<std::mutex> L(ChildMu);
    Kids = liveChildren();
  }
  for (pid_t P : Kids)
    ::kill(P, SIGKILL);
  for (pid_t P : Kids)
    waitExit(P);
}

namespace {
void onFatalSignal(int Sig) {
  // Kill and reap the registered children, then die by the signal. kill
  // and waitpid are async-signal-safe; the registry is only read here.
  for (pid_t P : liveChildren())
    ::kill(P, SIGKILL);
  for (pid_t P : liveChildren())
    ::waitpid(P, nullptr, 0);
  ::signal(Sig, SIG_DFL);
  ::raise(Sig);
}
} // namespace

void perfbench::installExitHandlers() {
  std::atexit(killTrackedChildren);
  for (int Sig : {SIGTERM, SIGINT, SIGHUP, SIGABRT, SIGSEGV})
    ::signal(Sig, onFatalSignal);
  ::signal(SIGPIPE, SIG_IGN);
}

//===----------------------------------------------------------------------===//
// Files
//===----------------------------------------------------------------------===//

void perfbench::writeTrace(const Tracer &T, const Args &A, Result &R) {
  const std::string Path = A.Work + "/../trace-" + A.Workload + "-seed" +
                           std::to_string(A.Seed) + ".json";
  if (!T.write(Path))
    R.gateFailure("cannot write trace to " + Path);
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

bool perfbench::writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream O(Path, std::ios::binary | std::ios::trunc);
  O << Data;
  return static_cast<bool>(O.flush());
}

uint64_t perfbench::fnv(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}
