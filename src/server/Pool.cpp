//===- server/Pool.cpp - Supervised worker pool ---------------------------===//

#include "server/Pool.h"

#include "persist/Cache.h"
#include "supervise/Supervisor.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

using namespace taj;
using namespace taj::server;
using supervise::ExitClass;

namespace {

/// A task's backstops: its cooperative limits after the TAJ_* environment
/// overlay, widened by deriveHardLimits. The parent arms the watchdog
/// from them, the worker its rlimits.
supervise::SupervisorConfig hardLimitsFor(const RunOptions &Opt) {
  RunGuard::Limits Coop;
  Coop.DeadlineMs = Opt.DeadlineMs;
  Coop.MaxMemoryBytes = Opt.MaxMemoryMb * 1024 * 1024;
  supervise::SupervisorConfig L;
  supervise::deriveHardLimits(RunGuard::limitsFromEnv(Coop), L);
  return L;
}

bool hardDeath(ExitClass C) {
  return C == ExitClass::Crashed || C == ExitClass::Timeout ||
         C == ExitClass::Oom;
}

/// Arms a task's RLIMIT_AS / RLIMIT_CPU backstops as soft limits above
/// what the worker already uses (address space, CPU seconds) and returns
/// the limits to restore after the task. Hard limits are never lowered,
/// so the restore is always allowed.
std::array<struct rlimit, 2> armTaskRlimits(const RunOptions &Opt) {
  const supervise::SupervisorConfig L = hardLimitsFor(Opt);
  std::array<struct rlimit, 2> Old;
  ::getrlimit(RLIMIT_AS, &Old[0]);
  ::getrlimit(RLIMIT_CPU, &Old[1]);
  auto Lower = [](int Res, struct rlimit Lim, uint64_t Want) {
    if (Want < Lim.rlim_cur) {
      Lim.rlim_cur = static_cast<rlim_t>(Want);
      ::setrlimit(Res, &Lim);
    }
  };
  if (L.HardMemoryBytes != 0) {
    unsigned long long Pages = 0; // statm field 1: address space in pages
    if (std::FILE *F = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(F, "%llu", &Pages) != 1)
        Pages = 0;
      std::fclose(F);
    }
    Lower(RLIMIT_AS, Old[0],
          Pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) +
              L.HardMemoryBytes);
  }
  struct rusage U;
  if (L.CpuLimitSec != 0 && ::getrusage(RUSAGE_SELF, &U) == 0)
    Lower(RLIMIT_CPU, Old[1],
          static_cast<uint64_t>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) + 1 +
              L.CpuLimitSec);
  return Old;
}

/// The worker process: long-lived caches (disk tier shared with the other
/// workers through the filesystem, hot tier private), one spool file for
/// stdout capture, one analysis per task frame.
[[noreturn]] void workerMain(const PoolOptions &O, int Fd) {
  // The parent's drain handlers were inherited; a watchdog SIGTERM must
  // kill this process, not set a flag in it.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
#if defined(__linux__)
  ::prctl(PR_SET_PDEATHSIG, SIGKILL); // no orphans
  // Only the pair end stays open: the parent's listen socket, client
  // connections, other workers' pairs and journal are not ours to hold.
  if (Fd > 3)
    ::close_range(3, static_cast<unsigned>(Fd) - 1, 0);
  ::close_range(static_cast<unsigned>(Fd) + 1, ~0u, 0);
#endif
  supervise::installWorkerOomHandler();
  // Fault injection reaches a worker only through its tasks' options (see
  // submit()), where a degraded retry has it stripped.
  for (const char *Var : {"TAJ_FAIL_AT", "TAJ_CRASH_AT", "TAJ_HANG_AT"})
    ::unsetenv(Var);

  // MiB -> bytes, saturating: an uncapped tier stays uncapped.
  persist::ArtifactCache Cache(
      O.CacheDir, O.CacheMaxMb * 1024 * 1024, O.CacheGraceMs,
      std::min<uint64_t>(O.HotMaxMb, UINT64_MAX >> 20) << 20);
  const char *TmpDir = std::getenv("TMPDIR");
  std::string Tmpl =
      std::string(TmpDir ? TmpDir : "/tmp") + "/taj-worker-spool-XXXXXX";
  int Spool = ::mkstemp(Tmpl.data());
  if (Spool >= 0)
    ::unlink(Tmpl.c_str());
  int OrigOut = ::dup(STDOUT_FILENO);
  const bool Tracing = trace::enabled();

  std::vector<uint8_t> Payload;
  while (readFrame(Fd, Payload)) {
    Request Req;
    Response Resp;
    RunOptions Opt;
    bool Ok = deserializeRequest(Payload.data(), Payload.size(), Req);
    for (size_t I = 0; Ok && I < Req.Overrides.size(); ++I)
      Ok = parseRunOption(Req.Overrides[I].c_str(), Opt) ==
           OptionParse::Matched;
    // Capture stdout onto the spool so the answer carries exactly the
    // bytes an in-process run prints. Without the capture the report
    // would leak to the parent's stdout and the task would come back a
    // hollow Ok: refuse it instead.
    std::fflush(stdout);
    const bool Spooled = Ok && Spool >= 0 && OrigOut >= 0 &&
                         ::lseek(Spool, 0, SEEK_SET) == 0 &&
                         ::ftruncate(Spool, 0) == 0 &&
                         ::dup2(Spool, STDOUT_FILENO) == STDOUT_FILENO;
    if (!Ok || !Spooled) {
      Resp.Exit = ExitError;
      Resp.Message = Ok ? "worker cannot capture analysis output"
                        : "worker cannot decode its task";
      if (!writeFrame(Fd, serializeResponse(Resp)))
        std::_Exit(ExitError);
      continue;
    }

    // Fresh ring per task: the answer carries only this task's events.
    if (Tracing)
      trace::enable();
    Stats TaskStats;
    const std::array<struct rlimit, 2> Restore = armTaskRlimits(Opt);
    RunOutcome Out = analyzeApp(Req.Sources, Opt,
                                Cache.enabled() ? &Cache : nullptr, &TaskStats);
    ::setrlimit(RLIMIT_AS, &Restore[0]);
    ::setrlimit(RLIMIT_CPU, &Restore[1]);
    std::fflush(stdout);
    ::dup2(OrigOut, STDOUT_FILENO);
    std::clearerr(stdout); // a spool write error must not outlive the swap
    off_t End = ::lseek(Spool, 0, SEEK_END);
    if (End > 0) {
      Resp.Report.resize(static_cast<size_t>(End));
      if (::lseek(Spool, 0, SEEK_SET) != 0 ||
          !readFull(Spool, &Resp.Report[0], Resp.Report.size())) {
        Resp.Report.clear();
        Out.Exit = ExitError; // report lost: do not claim a clean run
      }
    }
    Resp.Exit = Out.Exit;
    Resp.Issues = Out.NumIssues;
    Resp.StatsJson = TaskStats.toJson();
    if (Tracing)
      Resp.TraceBlob = trace::renderEvents();
    // An undeliverable answer (over the frame cap, or the parent is gone)
    // must not pass for a clean exit.
    if (!writeFrame(Fd, serializeResponse(Resp)))
      std::_Exit(ExitError);
  }
  std::_Exit(0); // the parent closed the pair, or died
}

} // namespace

int server::pollTimeoutMs(double WakeMs) {
  // Clamp before the int cast: poll's timeout caps near INT_MAX ms, and a
  // far deadline must not overflow into UB or a negative (infinite)
  // timeout; the caller re-arms after an early wake.
  return WakeMs < 0 ? -1 : static_cast<int>(std::min(WakeMs, 6.0e7)) + 1;
}

Pool::Pool(PoolOptions Opts, std::function<void(PoolResult &)> OnResult)
    : O(std::move(Opts)), OnResult(std::move(OnResult)), Journal(O.JournalPath),
      Slots(std::max(1u, O.MaxWorkers)) {}

Pool::~Pool() {
  for (Slot &W : Slots)
    if (W.Pid >= 0) {
      if (W.Busy)
        ::kill(W.Pid, SIGKILL);
      reap(W);
    }
}

bool Pool::canStartNow() const {
  return !Draining && std::any_of(Slots.begin(), Slots.end(),
                                  [](const Slot &W) { return !W.Busy; });
}

bool Pool::idle() const {
  return Queue.empty() && std::none_of(Slots.begin(), Slots.end(),
                                       [](const Slot &W) { return W.Busy; });
}

bool Pool::alive() const {
  return std::any_of(Slots.begin(), Slots.end(),
                     [](const Slot &W) { return W.Pid >= 0; });
}

void Pool::submit(PoolTask T) {
  // Fault injection asked for through the environment rides in the task's
  // options, where degradeForRetry strips it from retries; workers drop
  // the variables, so RunGuard cannot refill them.
  const RunGuard::Limits Env = RunGuard::limitsFromEnv();
  T.Opt.FailAt = T.Opt.FailAt ? T.Opt.FailAt : Env.FailAtCheckpoint;
  T.Opt.CrashAt = T.Opt.CrashAt ? T.Opt.CrashAt : Env.CrashAtCheckpoint;
  T.Opt.HangAt = T.Opt.HangAt ? T.Opt.HangAt : Env.HangAtCheckpoint;
  Queue.push_back(std::move(T));
  pump();
}

unsigned Pool::prefork() {
  unsigned Started = 0;
  while (spawn())
    ++Started;
  return Started;
}

Pool::Slot *Pool::spawn() {
  auto It = std::find_if(Slots.begin(), Slots.end(),
                         [](const Slot &W) { return W.Pid < 0; });
  if (It == Slots.end())
    return nullptr;
  std::fflush(nullptr); // the child must not replay buffered parent output
  int SP[2] = {-1, -1};
  pid_t Pid = ::socketpair(AF_UNIX, SOCK_STREAM, 0, SP) == 0 ? ::fork() : -1;
  if (Pid == 0) {
    ::close(SP[0]);
    workerMain(O, SP[1]);
  }
  if (Pid < 0) {
    std::fprintf(stderr, "error: cannot start a worker: %s\n",
                 std::strerror(errno));
    ::close(SP[0]);
    ::close(SP[1]);
    return nullptr;
  }
  ::close(SP[1]);
  *It = Slot();
  It->Pid = Pid;
  It->Fd = SP[0];
  ++N.Spawned;
  return &*It;
}

void Pool::pump() {
  while (!Queue.empty() && !Draining) {
    auto It = std::find_if(Slots.begin(), Slots.end(), [](const Slot &W) {
      return W.Pid >= 0 && !W.Busy;
    });
    Slot *W = It != Slots.end() ? &*It : spawn();
    if (!W && alive())
      return; // a running worker takes the task when it is done
    PoolTask T = std::move(Queue.front());
    Queue.pop_front();
    if (W) {
      dispatch(*W, std::move(T));
      continue;
    }
    // No worker exists and none can start: a terminal error for this
    // task, not for the pool.
    Response Resp;
    Resp.Exit = ExitError;
    Resp.Message = "cannot start a worker";
    finish(std::move(T), ExitClass::Error, 0, ExitError, std::move(Resp));
  }
}

void Pool::dispatch(Slot &W, PoolTask T) {
  Request Req;
  Req.Sources = T.Sources;
  Req.Overrides = encodeRunOptions(T.Opt);
  if (!writeFrame(W.Fd, serializeRequest(Req))) {
    // The worker died before taking the task: hand it to the next one.
    reap(W);
    Queue.push_front(std::move(T));
    return;
  }
  const supervise::SupervisorConfig L = hardLimitsFor(T.Opt);
  W.TermAt = L.HardDeadlineMs > 0 ? Clock.elapsedMs() + L.HardDeadlineMs : 0;
  W.KillAt = W.TermAt + L.GraceMs;
  W.TermSent = false;
  W.BeginUs = trace::enabled() ? trace::nowUs() : 0;
  W.Busy = true;
  W.Cur = std::move(T);
}

int Pool::reap(Slot &W) {
  ::close(W.Fd);
  int Status = 0;
  while (::waitpid(W.Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  W.Pid = W.Fd = -1;
  W.Busy = false;
  W.InBuf.clear();
  return Status;
}

void Pool::endSpan(const Slot &W) {
  if (W.BeginUs)
    trace::addComplete("worker: " + W.Cur.App + " (attempt " +
                           std::to_string(W.Cur.AttemptNo) + ")",
                       "supervise", W.BeginUs, trace::nowUs(),
                       1000 + static_cast<uint32_t>(&W - Slots.data()));
}

void Pool::onReadable(int Fd) {
  auto It = std::find_if(Slots.begin(), Slots.end(),
                         [Fd](const Slot &W) { return W.Fd == Fd; });
  if (It == Slots.end())
    return;
  Slot &W = *It;
  char Buf[65536];
  // Never blocks: the fd number may belong to a fresh worker by now.
  ssize_t Got = ::recv(W.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
  if (Got < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
    return;
  if (Got <= 0) {
    onDeath(W);
  } else {
    W.InBuf.append(Buf, static_cast<size_t>(Got));
    std::vector<uint8_t> Payload;
    bool Bad = false;
    while (W.Pid >= 0 && takeFrame(W.InBuf, Payload, Bad))
      onAnswer(W, Payload);
    if (Bad && W.Pid >= 0) {
      std::fprintf(stderr, "taj-pool: corrupt worker stream\n");
      ::kill(W.Pid, SIGKILL);
    }
  }
  pump();
}

void Pool::onAnswer(Slot &W, const std::vector<uint8_t> &Payload) {
  Response Resp;
  if (!deserializeResponse(Payload.data(), Payload.size(), Resp)) {
    // As good as dead: kill it and let the death path classify it.
    std::fprintf(stderr, "taj-pool: undecodable worker response\n");
    ::kill(W.Pid, SIGKILL);
    return;
  }
  if (!W.Busy)
    return;
  endSpan(W);
  W.Busy = false;
  // A copy for the parent's merged timeline; the answer keeps its own for
  // a server client's --trace.
  if (!Resp.TraceBlob.empty())
    TraceBlobs.push_back(Resp.TraceBlob);
  const ExitClass Class =
      Resp.Exit == ExitClean
          ? ExitClass::Clean
          : Resp.Exit == ExitTruncated ? ExitClass::Truncated
                                       : ExitClass::Error;
  Resp.St = statusFromExitClass(Class);
  const int Exit = Resp.Exit;
  PoolTask T = std::move(W.Cur);
  if (Draining)
    reap(W); // the task this worker was kept alive for is done
  finish(std::move(T), Class, 0, Exit, std::move(Resp));
}

void Pool::onDeath(Slot &W) {
  const bool WasBusy = W.Busy, WatchdogKilled = W.TermSent;
  if (WasBusy)
    endSpan(W);
  PoolTask T = std::move(W.Cur);
  const int Status = reap(W);
  if (!WasBusy)
    return; // an idle worker died: the next task forks a fresh one

  const ExitClass Class = supervise::classifyWaitStatus(Status, WatchdogKilled);
  const int Sig = WIFSIGNALED(Status) ? WTERMSIG(Status) : 0;
  const int Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  N.Crashed += Class == ExitClass::Crashed;
  N.TimedOut += Class == ExitClass::Timeout;
  N.OomKilled += Class == ExitClass::Oom;
  if (hardDeath(Class) && T.AttemptNo <= O.MaxRetries && !Draining) {
    // Retry ladder: a degraded re-run at the front of the queue, so the
    // task resolves before new work starts.
    journal(T, Class, Sig, Exit, 0, /*Terminal=*/false);
    ++N.Retried;
    ++T.AttemptNo;
    trace::addInstant("retry: " + T.App + " (attempt " +
                          std::to_string(T.AttemptNo) + ")",
                      "supervise");
    T.Opt = degradeForRetry(T.Opt);
    Queue.push_front(std::move(T));
    return;
  }
  Response Resp;
  Resp.St = statusFromExitClass(Class);
  Resp.Exit = exitCodeForStatus(Resp.St);
  Resp.Message = std::string("worker ") + supervise::exitClassName(Class);
  finish(std::move(T), Class, Sig, Exit, std::move(Resp));
}

void Pool::journal(const PoolTask &T, ExitClass Class, int Signal, int Exit,
                   uint64_t Issues, bool Terminal) {
  Journal.append({T.Line, T.App, O.ConfigFp, T.AttemptNo, Class, Signal, Exit,
                  Issues, Terminal});
}

void Pool::finish(PoolTask T, ExitClass Class, int Signal, int Exit,
                  Response Resp) {
  journal(T, Class, Signal, Exit, Resp.Issues, /*Terminal=*/true);
  N.Recovered +=
      T.AttemptNo > 1 && !hardDeath(Class) && Class != ExitClass::Error;
  PoolResult R{std::move(T), Class, Signal, Exit, std::move(Resp), Stats()};
  supervise::recoverWorkerStats(R.Resp.StatsJson, R.Task.App, &R.Counters,
                                N.StatsParseFailed);
  OnResult(R);
}

double Pool::watchdog() {
  const double Now = Clock.elapsedMs();
  double Next = -1;
  for (Slot &W : Slots) {
    if (!W.Busy || W.TermAt == 0)
      continue;
    if (!W.TermSent && Now >= W.TermAt) {
      trace::addInstant("watchdog SIGTERM: " + W.Cur.App, "supervise");
      ::kill(W.Pid, SIGTERM);
      W.TermSent = true;
    } else if (W.TermSent && Now >= W.KillAt) {
      trace::addInstant("watchdog SIGKILL: " + W.Cur.App, "supervise");
      ::kill(W.Pid, SIGKILL);
      W.KillAt = Now + 1000; // re-nudge if the zombie lingers
    }
    const double At = W.TermSent ? W.KillAt : W.TermAt;
    if (Next < 0 || At - Now < Next)
      Next = std::max(0.0, At - Now);
  }
  return Next;
}

void Pool::pollFds(std::vector<struct pollfd> &Fds) const {
  for (const Slot &W : Slots)
    if (W.Pid >= 0)
      Fds.push_back({W.Fd, POLLIN, 0});
}

void Pool::waitOnce() {
  std::vector<struct pollfd> Fds;
  pollFds(Fds);
  if (::poll(Fds.data(), Fds.size(), pollTimeoutMs(watchdog())) <= 0)
    return; // a deadline passed (the next round acts on it) or EINTR
  for (const struct pollfd &P : Fds)
    if (P.revents)
      onReadable(P.fd);
}

std::vector<PoolTask> Pool::drain() {
  Draining = true;
  std::vector<PoolTask> Left(std::make_move_iterator(Queue.begin()),
                             std::make_move_iterator(Queue.end()));
  Queue.clear();
  for (Slot &W : Slots)
    if (W.Pid >= 0 && !W.Busy)
      reap(W); // EOF on its pair: the worker exits
  return Left;
}

void Pool::exportStats(Stats &S) const {
  S.add("supervise.spawned", N.Spawned);
  S.add("supervise.crashed", N.Crashed);
  S.add("supervise.timed_out", N.TimedOut);
  S.add("supervise.oom_killed", N.OomKilled);
  S.add("supervise.retried", N.Retried);
  S.add("supervise.recovered", N.Recovered);
  S.add("supervise.stats_parse_failed", N.StatsParseFailed);
}
