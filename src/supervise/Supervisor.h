//===- supervise/Supervisor.h - Worker supervision primitives --*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervision primitives of the worker pool (server/Pool.h), the
/// non-cooperative half of TAJ's bounded-analysis discipline (§6):
/// RunGuard degrades a run gracefully, but only at checkpoints the run
/// reaches. A segfault, an OOM kill or a hard hang between checkpoints is
/// outside its reach; these pieces let a parent process survive, bound
/// and classify such a worker:
///
///  - exit classification from the wait status (clean / truncated /
///    error / crashed(signal) / timeout / oom);
///  - the backstop limits derived from the cooperative ones (hard
///    deadline for the watchdog, RLIMIT_AS / RLIMIT_CPU ceilings);
///  - recovery of a worker's counters, and the worker-side OOM handler.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SUPERVISE_SUPERVISOR_H
#define TAJ_SUPERVISE_SUPERVISOR_H

#include "supervise/Journal.h"
#include "support/RunGuard.h"
#include "support/Stats.h"

#include <string>

namespace taj {
namespace supervise {

/// Reserved worker exit code announcing an allocation failure while
/// running under the pool's RLIMIT_AS ceiling (the worker installs
/// a new-handler that dies with this code; see installWorkerOomHandler).
/// Outside the 0/1/2 CLI exit contract, so it cannot be confused with a
/// real analysis outcome.
constexpr int WorkerOomExitCode = 17;

/// Pure classification of a worker's waitpid status. \p WatchdogKilled
/// tells whether the pool's watchdog delivered the fatal signal.
/// SIGXCPU is a timeout (the RLIMIT_CPU backstop); an un-asked-for
/// SIGKILL is the kernel OOM killer's signature; WorkerOomExitCode is the
/// worker self-reporting allocation failure under RLIMIT_AS.
ExitClass classifyWaitStatus(int WaitStatus, bool WatchdogKilled);

/// The non-cooperative backstop limits of one task (deriveHardLimits).
struct SupervisorConfig {
  /// Watchdog wall-clock limit per attempt in ms (0 = no watchdog).
  double HardDeadlineMs = 0;
  /// SIGTERM -> SIGKILL escalation grace in ms.
  double GraceMs = 2000;
  /// RLIMIT_AS headroom in bytes (0 = none).
  uint64_t HardMemoryBytes = 0;
  /// RLIMIT_CPU headroom in seconds (0 = none).
  uint64_t CpuLimitSec = 0;
};

/// Fills the non-cooperative backstop limits of \p C from the cooperative
/// ones: hard deadline = 2x cooperative + 1s, RLIMIT_AS = 2x cooperative
/// memory ceiling, RLIMIT_CPU from the hard deadline. The
/// TAJ_HARD_DEADLINE_MS / TAJ_HARD_MAX_MEMORY_MB / TAJ_WATCHDOG_GRACE_MS
/// environment knobs override (0 disables), letting operators arm the
/// watchdog even for runs with no cooperative limits.
void deriveHardLimits(const RunGuard::Limits &Coop, SupervisorConfig &C);

/// Recovers a finished worker's counters (a Stats JSON object): merges
/// everything that parsed into \p Merged (when non-null) and returns the
/// worker's cli.issues count. An empty \p StatsText is normal (a dead
/// worker sends none) and not an error. Malformed JSON
/// increments \p ParseFailures and emits a stderr diagnostic naming
/// \p App — the counters that did parse are still merged, so a torn
/// write surfaces instead of silently dropping the worker's data.
uint64_t recoverWorkerStats(const std::string &StatsText,
                            const std::string &App, Stats *Merged,
                            uint64_t &ParseFailures);

/// Worker-side arming, called by every pool worker at start: installs a
/// new-handler that turns an allocation failure under RLIMIT_AS into a
/// deterministic _exit(WorkerOomExitCode) instead of an uncatchable
/// bad_alloc abort.
void installWorkerOomHandler();

} // namespace supervise
} // namespace taj

#endif // TAJ_SUPERVISE_SUPERVISOR_H
