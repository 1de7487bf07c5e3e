//===- server/Server.h - Persistent analysis daemon ------------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis server: a long-running daemon (`taj-cli --serve=SOCKET`)
/// that accepts analysis requests over a Unix-domain socket and serves
/// them from a pre-forked pool of warm worker processes.
///
/// Why a daemon: batch mode amortizes the artifact cache across one run,
/// but every `--jobs` worker still pays process start, cache open and a
/// cold in-memory state per app. The server keeps PoolSize workers alive
/// across requests; each worker owns an ArtifactCache whose disk tier is
/// shared and whose in-memory hot tier (sized by --hot-max-mb) holds
/// verified payload bytes, so a warm request skips exec, disk reads and
/// checksum re-verification entirely.
///
/// Architecture (single-threaded daemon, process-isolated workers):
///
///   clients --UNIX socket--> daemon --socketpair--> worker[0..N)
///
///  - admission control: a bounded queue (QueueDepth) of decoded,
///    validated requests; a request arriving with the queue full is
///    answered `busy` immediately and never touches a worker;
///  - dispatch: idle workers pull from the queue FIFO; the request's
///    config overrides are re-encoded through the canonical
///    encodeRunOptions() form, so a server request is bit-for-bit the
///    run a batch worker would have performed;
///  - supervision: the worker pool (server/Pool.h) that also runs the
///    supervised batch — a per-request watchdog (hard deadline derived
///    from the request's cooperative deadline via deriveHardLimits: 2x +
///    1s, TAJ_HARD_DEADLINE_MS / TAJ_WATCHDOG_GRACE_MS overridable) with
///    SIGTERM -> SIGKILL escalation, per-request RLIMIT_AS / RLIMIT_CPU
///    soft limits in the worker, six-way exit classification of dead
///    workers (supervise::classifyWaitStatus) mapped onto protocol status
///    codes, and the degraded-config retry ladder (degradeForRetry) before
///    a crash/timeout/OOM becomes the client's answer;
///  - isolation: a crashed worker takes its hot tier with it and is
///    replaced by a fresh one when the next request needs it; the daemon,
///    the queue and the other workers are unaffected;
///  - drain: SIGTERM/SIGINT stops accepting (socket closed + unlinked),
///    answers queued requests `shutting-down`, lets in-flight requests
///    finish, reaps the pool, flushes the journal/stats/trace artifacts,
///    and exits 0.
///
/// Observability: `server.{accepted,rejected_busy,served,retried,
/// hot_hits,drained}` counters are stamped into every response's stats
/// blob and the daemon's final --stats-json; with --trace each request
/// occupies a synthetic per-worker lane (tid 1000+worker) in the merged
/// timeline alongside the workers' own phase spans; with --journal every
/// attempt appends the same JSONL records a supervised batch writes.
///
//===----------------------------------------------------------------------===//

#ifndef TAJ_SERVER_SERVER_H
#define TAJ_SERVER_SERVER_H

#include "server/Pool.h"

#include <string>
#include <vector>

namespace taj {
namespace server {

/// The daemon's own settings: transport, admission bound and the base
/// analysis options requests override. The pool's (size, retries, cache,
/// hot tier, journal) come as PoolOptions.
struct ServerOptions {
  std::string SocketPath;
  unsigned QueueDepth = 16;
  RunOptions Base;
};

/// Runs the daemon until a drain signal, serving requests on
/// O.SocketPath from a pool of \p Workers. On return \p Merged holds
/// every served request's counters plus the server.* ones and
/// \p TraceBlobs the workers' trace events, for the caller's --stats-json
/// / --trace. Returns the process exit code: 0 after a clean drain,
/// ExitError when the socket or the pool cannot be set up.
int runServer(const ServerOptions &O, PoolOptions Workers, Stats &Merged,
              std::vector<std::string> &TraceBlobs);

} // namespace server
} // namespace taj

#endif // TAJ_SERVER_SERVER_H
