//===- server/Server.cpp - Persistent analysis daemon ---------------------===//

#include "server/Server.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace taj;
using namespace taj::server;

namespace {

volatile sig_atomic_t GDrain = 0;

/// Self-pipe: the drain handler writes a byte here and the daemon polls
/// the read end, so a signal landing *between* the GDrain check and
/// poll() still wakes the loop (EINTR alone only covers signals that
/// land while poll() is blocked).
int GWakeFds[2] = {-1, -1};

void drainHandler(int) {
  GDrain = 1;
  if (GWakeFds[1] >= 0) {
    const char B = 1;
    // A full pipe means a wake is already pending; both write() and the
    // EAGAIN it may return are async-signal-safe.
    ssize_t N = ::write(GWakeFds[1], &B, 1);
    (void)N;
  }
}

/// Installs the drain handlers without SA_RESTART, so a signal interrupts
/// poll() with EINTR and the loop notices immediately.
void installDrainHandlers() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = drainHandler;
  ::sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

/// One connected client still sending its request frame (admission moves
/// the fd to the request).
struct ClientConn {
  int Fd = -1;
  std::string Buf;
};

/// One response in flight to a client, owned by the send buffer: the fd
/// is non-blocking and whatever write() cannot push immediately drains
/// under POLLOUT, so a client that stops reading (hung, SIGSTOP'd) can
/// never stall the daemon's event loop. DeadlineAt bounds how long a
/// non-reading client may hold the buffered bytes.
struct Outgoing {
  int Fd = -1;
  std::string Buf;
  size_t Off = 0;
  double DeadlineAt = 0; ///< daemon-clock ms after which the client is dropped
};

/// Pushes buffered response bytes. True while the entry still has bytes
/// to drain (keep polling POLLOUT); false once it is finished — fully
/// written, peer gone, or hard error — with the fd closed.
bool flushOutgoing(Outgoing &Wr) {
  while (Wr.Off < Wr.Buf.size()) {
    ssize_t N = ::write(Wr.Fd, Wr.Buf.data() + Wr.Off, Wr.Buf.size() - Wr.Off);
    if (N > 0) {
      Wr.Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    break; // EPIPE and friends: the response is undeliverable
  }
  ::close(Wr.Fd);
  Wr.Fd = -1;
  return false;
}

/// The daemon proper. Single-threaded poll() loop. Client reads stay
/// blocking (one read per readiness event) and worker-bound writes may
/// block (a dispatched worker is always draining its pair); client-bound
/// writes go through the non-blocking Outgoing buffers above, because a
/// client is under no obligation to read its response promptly.
class Daemon {
public:
  Daemon(const ServerOptions &O, PoolOptions P, Stats &Merged);

  int run(std::vector<std::string> &TraceBlobs);

private:
  bool setupSocket();
  void admit(ClientConn &C, std::vector<uint8_t> &Payload);
  void refuse(int Fd, Status St, const std::string &Msg);
  void queueResponse(int Fd, const Response &R);
  void onResult(PoolResult &R);
  void beginDrain();
  void addCounters(Stats &S) const;
  double nowMs() const { return Clock.elapsedMs(); }

  ServerOptions O;
  Pool Workers;
  Timer Clock;
  int ListenFd = -1;
  std::vector<ClientConn> Clients;
  std::vector<Outgoing> Writes; ///< responses still draining to clients
  /// Client fd of every admitted request not answered yet, by serial.
  std::unordered_map<uint64_t, int> ClientOf;
  /// How long a client gets to read its response before it is dropped.
  static constexpr double ClientWriteTimeoutMs = 30000;
  uint64_t NextLine = 0;
  unsigned Preforked = 0;
  bool Draining = false;
  Stats &Merged; ///< every served request's counters, for --stats-json
  struct Counters {
    uint64_t Accepted = 0, RejectedBusy = 0, Served = 0, HotHits = 0,
             Drained = 0;
  } N;
};

Daemon::Daemon(const ServerOptions &Opts, PoolOptions P, Stats &Merged)
    : O(Opts), Workers(std::move(P), [this](PoolResult &R) { onResult(R); }),
      Merged(Merged) {}

bool Daemon::setupSocket() {
  struct sockaddr_un Addr;
  if (O.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: '%s'\n",
                 O.SocketPath.c_str());
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, O.SocketPath.c_str(), O.SocketPath.size() + 1);
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) < 0) {
    if (errno == EADDRINUSE) {
      // A live server owns the path, or a crashed one left it behind.
      // Probe: if nobody answers, reclaim the stale file.
      int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      bool Live = Probe >= 0 &&
                  ::connect(Probe, reinterpret_cast<struct sockaddr *>(&Addr),
                            sizeof(Addr)) == 0;
      if (Probe >= 0)
        ::close(Probe);
      if (Live) {
        std::fprintf(stderr, "error: a server is already listening on '%s'\n",
                     O.SocketPath.c_str());
        ::close(ListenFd);
        ListenFd = -1;
        return false;
      }
      ::unlink(O.SocketPath.c_str());
      if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
                 sizeof(Addr)) == 0)
        goto Bound;
    }
    std::fprintf(stderr, "error: bind '%s': %s\n", O.SocketPath.c_str(),
                 std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
Bound:
  if (::listen(ListenFd, 64) < 0) {
    std::fprintf(stderr, "error: listen '%s': %s\n", O.SocketPath.c_str(),
                 std::strerror(errno));
    ::close(ListenFd);
    ::unlink(O.SocketPath.c_str());
    ListenFd = -1;
    return false;
  }
  return true;
}

/// Takes ownership of \p Fd and sends one response frame without ever
/// blocking the daemon: the fd is switched non-blocking, as much as the
/// socket buffer takes is written immediately, and the remainder (if
/// any) drains under POLLOUT with a drop deadline.
void Daemon::queueResponse(int Fd, const Response &R) {
  Outgoing Wr;
  if (!appendFrame(Wr.Buf, serializeResponse(R))) {
    ::close(Fd); // oversized payload: the peer would reject it anyway
    return;
  }
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  Wr.Fd = Fd;
  Wr.DeadlineAt = nowMs() + ClientWriteTimeoutMs;
  if (flushOutgoing(Wr))
    Writes.push_back(std::move(Wr));
}

void Daemon::refuse(int Fd, Status St, const std::string &Msg) {
  Response R;
  R.St = St;
  R.Exit = exitCodeForStatus(St);
  R.Message = Msg;
  queueResponse(Fd, R); // best effort: peer may be gone
}

void Daemon::admit(ClientConn &C, std::vector<uint8_t> &Payload) {
  Request Req;
  if (!deserializeRequest(Payload.data(), Payload.size(), Req)) {
    refuse(C.Fd, Status::ProtocolError, "undecodable request");
    C.Fd = -1;
    return;
  }
  if (Draining) {
    refuse(C.Fd, Status::ShuttingDown, "server is draining");
    C.Fd = -1;
    return;
  }
  // Validate before admission: a request the worker would refuse must
  // not occupy queue depth or a worker slot.
  PoolTask T;
  T.Opt = O.Base;
  bool OptOk = !Req.Sources.empty();
  std::string BadOpt;
  for (const std::string &Ov : Req.Overrides)
    if (parseRunOption(Ov.c_str(), T.Opt) != OptionParse::Matched) {
      OptOk = false;
      BadOpt = Ov;
      break;
    }
  if (!OptOk) {
    refuse(C.Fd, Status::BadRequest,
           Req.Sources.empty() ? "request names no sources"
                               : "bad override '" + BadOpt + "'");
    C.Fd = -1;
    return;
  }
  if (Workers.queued() >= O.QueueDepth && !Workers.canStartNow()) {
    ++N.RejectedBusy;
    refuse(C.Fd, Status::Busy, "admission queue full");
    C.Fd = -1;
    return;
  }
  for (const AppSource &S : Req.Sources) {
    if (!T.App.empty())
      T.App += " ";
    T.App += S.Name;
  }
  T.Sources = std::move(Req.Sources);
  T.Line = NextLine++;
  ++N.Accepted;
  // Fd ownership moves to the request; the slot is cleared so compaction
  // reclaims it.
  ClientOf[T.Line] = C.Fd;
  C.Fd = -1;
  Workers.submit(std::move(T));
}

void Daemon::onResult(PoolResult &R) {
  ++N.Served;
  if (Draining)
    ++N.Drained;
  N.HotHits += R.Counters.get("persist.mem_hit");
  Merged.merge(R.Counters);
  // Stamp the server's counters into the response so a client's
  // --stats-json shows the daemon-side picture too.
  addCounters(R.Counters);
  R.Resp.StatsJson = R.Counters.toJson();
  auto It = ClientOf.find(R.Task.Line);
  if (It != ClientOf.end()) {
    queueResponse(It->second, R.Resp);
    ClientOf.erase(It);
  }
}

void Daemon::beginDrain() {
  Draining = true;
  trace::addInstant("drain", "server");
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(O.SocketPath.c_str());
  }
  // Everything not yet running gets a clean refusal; idle workers see EOF
  // on their pair and exit, busy ones keep running until their in-flight
  // response lands.
  for (const PoolTask &T : Workers.drain()) {
    auto It = ClientOf.find(T.Line);
    if (It != ClientOf.end()) {
      refuse(It->second, Status::ShuttingDown, "server is draining");
      ClientOf.erase(It);
    }
  }
  for (ClientConn &C : Clients)
    if (C.Fd >= 0) {
      refuse(C.Fd, Status::ShuttingDown, "server is draining");
      C.Fd = -1;
    }
}

void Daemon::addCounters(Stats &S) const {
  S.add("server.accepted", N.Accepted);
  S.add("server.rejected_busy", N.RejectedBusy);
  S.add("server.served", N.Served);
  S.add("server.retried", Workers.retried());
  S.add("server.hot_hits", N.HotHits);
  S.add("server.drained", N.Drained);
}

int Daemon::run(std::vector<std::string> &TraceBlobs) {
  // Handlers before the socket goes live: a client that sees the socket
  // may SIGTERM us immediately, and with the default disposition still in
  // place that kills the daemon instead of starting a drain. The handler
  // tolerates the wake pipe not existing yet (GDrain alone suffices — the
  // loop checks it before its first poll()).
  installDrainHandlers();
  if (!setupSocket())
    return ExitError;
  // Non-blocking on both ends: the handler must never block, and draining
  // reads until EAGAIN.
  if (::pipe(GWakeFds) == 0) {
    for (int End = 0; End < 2; ++End) {
      int Flags = ::fcntl(GWakeFds[End], F_GETFL, 0);
      if (Flags >= 0)
        ::fcntl(GWakeFds[End], F_SETFL, Flags | O_NONBLOCK);
    }
  } else {
    GWakeFds[0] = GWakeFds[1] = -1; // EINTR-on-poll remains the fallback
  }
  // A partial pool still serves; no pool at all cannot.
  Preforked = Workers.prefork();
  if (Preforked == 0) {
    ::close(ListenFd);
    ::unlink(O.SocketPath.c_str());
    return ExitError;
  }
  std::fprintf(stderr, "taj-serve: listening on %s (pool=%u queue=%u)\n",
               O.SocketPath.c_str(), Preforked, O.QueueDepth);

  std::vector<struct pollfd> Pfds;
  std::vector<uint8_t> Payload;
  char RdBuf[65536];
  for (;;) {
    if (GDrain && !Draining)
      beginDrain();
    if (Draining && !Workers.alive() &&
        std::none_of(Writes.begin(), Writes.end(),
                     [](const Outgoing &Wr) { return Wr.Fd >= 0; }))
      break;

    double Now = nowMs();
    double NextWake = Workers.watchdog();
    // Buffered-response deadlines: a client that has not drained its
    // response by DeadlineAt is dropped.
    for (Outgoing &Wr : Writes) {
      if (Wr.Fd < 0)
        continue;
      if (Now >= Wr.DeadlineAt) {
        ::close(Wr.Fd);
        Wr.Fd = -1;
        continue;
      }
      if (NextWake < 0 || Wr.DeadlineAt - Now < NextWake)
        NextWake = Wr.DeadlineAt - Now;
    }

    Pfds.clear();
    // Index map: Pfds[i] corresponds to Kind[i]/Which[i].
    std::vector<int> Kind;  // 0=listen, 1=client, 2=worker, 3=wake, 4=write
    std::vector<size_t> Which;
    if (ListenFd >= 0) {
      Pfds.push_back({ListenFd, POLLIN, 0});
      Kind.push_back(0);
      Which.push_back(0);
    }
    for (size_t I = 0; I < Clients.size(); ++I)
      if (Clients[I].Fd >= 0) {
        Pfds.push_back({Clients[I].Fd, POLLIN, 0});
        Kind.push_back(1);
        Which.push_back(I);
      }
    Workers.pollFds(Pfds);
    Kind.resize(Pfds.size(), 2);
    Which.resize(Pfds.size(), 0);
    if (GWakeFds[0] >= 0) {
      Pfds.push_back({GWakeFds[0], POLLIN, 0});
      Kind.push_back(3);
      Which.push_back(0);
    }
    for (size_t I = 0; I < Writes.size(); ++I)
      if (Writes[I].Fd >= 0) {
        Pfds.push_back({Writes[I].Fd, POLLOUT, 0});
        Kind.push_back(4);
        Which.push_back(I);
      }

    int RC = ::poll(Pfds.data(), Pfds.size(), pollTimeoutMs(NextWake));
    if (RC < 0) {
      if (errno == EINTR)
        continue; // drain signal or reaped child; loop re-evaluates
      std::fprintf(stderr, "error: poll: %s\n", std::strerror(errno));
      break;
    }

    for (size_t I = 0; I < Pfds.size(); ++I) {
      if (Pfds[I].revents == 0)
        continue;
      if (Kind[I] == 0) {
        int CFd = ::accept(ListenFd, nullptr, nullptr);
        if (CFd >= 0) {
          ClientConn C;
          C.Fd = CFd;
          // Reuse a dead slot to keep the vector bounded.
          auto It = std::find_if(Clients.begin(), Clients.end(),
                                 [](const ClientConn &X) {
                                   return X.Fd < 0;
                                 });
          if (It != Clients.end())
            *It = std::move(C);
          else
            Clients.push_back(std::move(C));
        }
      } else if (Kind[I] == 1) {
        ClientConn &C = Clients[Which[I]];
        ssize_t Got = ::read(C.Fd, RdBuf, sizeof(RdBuf));
        if (Got <= 0) {
          if (Got < 0 && errno == EINTR)
            continue;
          ::close(C.Fd); // EOF before a full request: client gave up
          C.Fd = -1;
          C.Buf.clear();
          continue;
        }
        C.Buf.append(RdBuf, static_cast<size_t>(Got));
        bool Bad = false;
        if (takeFrame(C.Buf, Payload, Bad)) {
          // One request per connection: whatever trails the frame is
          // noise. admit() takes the fd on every path — admitted or
          // refused, C.Fd comes back cleared.
          admit(C, Payload);
          C.Buf.clear();
        } else if (Bad || C.Buf.size() > 8 + static_cast<size_t>(
                                                 MaxFrameBytes)) {
          refuse(C.Fd, Status::ProtocolError, "bad frame");
          C.Fd = -1;
          C.Buf.clear();
        }
      } else if (Kind[I] == 3) {
        // Self-pipe tick: drain it; the wake itself is the payload.
        while (::read(GWakeFds[0], RdBuf, sizeof(RdBuf)) > 0) {
        }
      } else if (Kind[I] == 4) {
        flushOutgoing(Writes[Which[I]]);
      } else {
        Workers.onReadable(Pfds[I].fd);
      }
    }
    // Compact dead client slots and finished writes opportunistically.
    Clients.erase(std::remove_if(Clients.begin(), Clients.end(),
                                 [](const ClientConn &C) {
                                   return C.Fd < 0;
                                 }),
                  Clients.end());
    Writes.erase(std::remove_if(Writes.begin(), Writes.end(),
                                [](const Outgoing &Wr) { return Wr.Fd < 0; }),
                 Writes.end());
  }

  // Detach the self-pipe from the handler before closing it, so a late
  // signal sees -1 and skips the write instead of hitting a closed fd.
  const int WakeR = GWakeFds[0], WakeW = GWakeFds[1];
  GWakeFds[0] = GWakeFds[1] = -1;
  if (WakeR >= 0)
    ::close(WakeR);
  if (WakeW >= 0)
    ::close(WakeW);

  addCounters(Merged);
  TraceBlobs = Workers.takeTraceBlobs();
  // Workers forked after the pre-forked pool replace dead ones.
  Merged.add("server.respawned", Workers.spawned() - Preforked);
  std::fprintf(stderr, "taj-serve: drained (%llu served, %llu busy-rejected, "
                       "%llu retried, %llu hot hits)\n",
               static_cast<unsigned long long>(N.Served),
               static_cast<unsigned long long>(N.RejectedBusy),
               static_cast<unsigned long long>(Workers.retried()),
               static_cast<unsigned long long>(N.HotHits));
  return ExitClean;
}

} // namespace

int server::runServer(const ServerOptions &O, PoolOptions Workers,
                      Stats &Merged, std::vector<std::string> &TraceBlobs) {
  Daemon D(O, std::move(Workers), Merged);
  return D.run(TraceBlobs);
}
