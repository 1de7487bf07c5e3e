//===- server/Pool.h - Supervised worker pool ------------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one worker-pool engine behind the analysis daemon (`--serve`) and
/// the supervised batch (`--batch --jobs=N`): the non-cooperative half of
/// TAJ's bounded-analysis discipline (§6), which survives the runs that
/// never reach a RunGuard checkpoint — a segfault, an OOM kill, a hang.
///
///   caller --submit()--> FIFO queue --socketpair--> worker[0..N)
///
/// Workers are forked on demand (a task is queued and no worker is idle,
/// up to MaxWorkers) and run one analyzeApp() per task frame, stdout
/// spooled into the answer, under PR_SET_PDEATHSIG and the OOM handler.
/// Per task the worker arms deriveHardLimits' RLIMIT_AS / RLIMIT_CPU
/// backstops as soft limits above what it already uses and restores them
/// afterwards. The parent runs a SIGTERM -> SIGKILL watchdog per task,
/// classifies dead workers (classifyWaitStatus), re-queues crashed /
/// timed-out / OOM-killed tasks at the front with degradeForRetry()
/// options up to MaxRetries, journals every attempt, and with tracing on
/// records one `worker: <app> (attempt N)` span per attempt on lane
/// 1000+slot plus the worker's own events.
///
/// The pool never blocks on its own: callers poll its fds (pollFds,
/// onReadable, watchdog) in their event loop, or call waitOnce().
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SERVER_POOL_H
#define TAJ_SERVER_POOL_H

#include "server/Protocol.h"
#include "supervise/Journal.h"
#include "support/Stats.h"

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/types.h>

namespace taj {
namespace server {

/// One unit of work: one app under one set of options.
struct PoolTask {
  uint64_t Line = 0; ///< journal line key (list position / request serial)
  std::string App;   ///< display name
  std::vector<AppSource> Sources;
  RunOptions Opt;         ///< degraded in place on retry
  unsigned AttemptNo = 1; ///< 1 = first attempt
};

/// A task's terminal outcome.
struct PoolResult {
  PoolTask Task;
  supervise::ExitClass Class = supervise::ExitClass::Error;
  int Signal = 0; ///< terminating signal of a dead worker
  int Exit = -1;  ///< the answer's exit, a dead worker's code, -1 signaled
  /// The worker's answer; for a dead worker, one carrying its class.
  Response Resp;
  Stats Counters; ///< the answer's counters (recoverWorkerStats)
};

/// How the pool's workers are set up and supervised.
struct PoolOptions {
  unsigned MaxWorkers = 1;
  /// Re-runs granted to a crashed / timed-out / OOM-killed task.
  unsigned MaxRetries = 1;
  std::string JournalPath; ///< "" = no journal
  std::string ConfigFp;    ///< stamped into journal records
  std::string CacheDir;    ///< "" = no disk tier
  uint64_t CacheMaxMb = 0;
  uint64_t CacheGraceMs = 0;
  /// Per-worker in-memory hot tier cap in MiB: 0 = no hot tier (batch
  /// workers, whose apps are all distinct), UINT64_MAX = uncapped.
  uint64_t HotMaxMb = 0;
};

/// poll() timeout for a wake-up \p WakeMs from now (-1 = none).
int pollTimeoutMs(double WakeMs);

class Pool {
public:
  /// \p OnResult is called once per task with its terminal outcome.
  Pool(PoolOptions O, std::function<void(PoolResult &)> OnResult);
  /// Kills busy workers, closes idle ones and reaps them all.
  ~Pool();
  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  /// Queues \p T at the back and starts what can start.
  void submit(PoolTask T);
  /// Forks idle workers up to MaxWorkers ahead of any work; returns how
  /// many started.
  unsigned prefork();

  /// A submitted task would start now: a worker is idle or may be forked.
  bool canStartNow() const;
  size_t queued() const { return Queue.size(); }
  /// No task queued or running.
  bool idle() const;
  /// Any worker process alive.
  bool alive() const;

  /// Appends one POLLIN entry per worker to \p Fds.
  void pollFds(std::vector<struct pollfd> &Fds) const;
  /// Handles readiness of worker fd \p Fd: an answer, or the worker's death.
  void onReadable(int Fd);
  /// Signals overdue workers; returns ms to the next deadline (-1 = none).
  double watchdog();
  /// One blocking poll round over the pool's own fds.
  void waitOnce();

  /// Stops taking work: returns the queued tasks and closes idle workers;
  /// busy ones finish without retries and are closed when they answer.
  std::vector<PoolTask> drain();

  uint64_t spawned() const { return N.Spawned; }
  uint64_t retried() const { return N.Retried; }
  /// Exports supervise.{spawned,crashed,timed_out,oom_killed,retried,
  /// recovered,stats_parse_failed}.
  void exportStats(Stats &S) const;
  /// The collected worker trace-event blobs, in finish order.
  std::vector<std::string> takeTraceBlobs() { return std::move(TraceBlobs); }

private:
  struct Slot {
    pid_t Pid = -1; ///< -1 = empty slot
    int Fd = -1;
    bool Busy = false;
    PoolTask Cur;
    std::string InBuf;
    uint64_t BeginUs = 0;
    double TermAt = 0; ///< clock ms of the watchdog SIGTERM (0 = off)
    double KillAt = 0; ///< clock ms of the SIGKILL that follows it
    bool TermSent = false;
  };

  Slot *spawn();
  void pump();
  void dispatch(Slot &W, PoolTask T);
  int reap(Slot &W);
  void endSpan(const Slot &W);
  void onAnswer(Slot &W, const std::vector<uint8_t> &Payload);
  void onDeath(Slot &W);
  void journal(const PoolTask &T, supervise::ExitClass Class, int Signal,
               int Exit, uint64_t Issues, bool Terminal);
  void finish(PoolTask T, supervise::ExitClass Class, int Signal, int Exit,
              Response Resp);

  PoolOptions O;
  std::function<void(PoolResult &)> OnResult;
  supervise::Journal Journal;
  std::vector<Slot> Slots;
  std::deque<PoolTask> Queue;
  Timer Clock;
  bool Draining = false;
  std::vector<std::string> TraceBlobs;
  struct Counters {
    uint64_t Spawned = 0, Crashed = 0, TimedOut = 0, OomKilled = 0,
             Retried = 0, Recovered = 0, StatsParseFailed = 0;
  } N;
};

} // namespace server
} // namespace taj

#endif // TAJ_SERVER_POOL_H
