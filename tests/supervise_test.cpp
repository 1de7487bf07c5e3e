//===- tests/supervise_test.cpp - Process-level supervision --------------===//
//
// The worker pool is the non-cooperative backstop to RunGuard: a batch
// must survive workers that crash, hang, or are OOM-killed between
// checkpoints.
// These tests pin down that contract:
//  - wait-status classification (clean / truncated / error / crashed /
//    timeout / oom) over crafted statuses and real worker deaths;
//  - the retry ladder: a crashed or hung app re-runs once, degraded (fault
//    injection stripped from flags and environment), and recovers; with
//    the budget spent it is a terminal error;
//  - the RLIMIT_AS backstop trips: an allocation past it ends as oom;
//  - the JSONL journal round-trips, tolerates torn tails, and drives
//    --resume (including after the supervisor itself is SIGKILLed);
//  - --jobs=1 and --jobs=N stdout is byte-identical to the in-process
//    --jobs=0 batch loop;
//  - workers die with the supervisor (no orphans);
//  - numeric CLI flags range-check instead of silently wrapping.
//
//===----------------------------------------------------------------------===//

#include "supervise/Journal.h"
#include "supervise/Supervisor.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace taj;
using namespace taj::supervise;
namespace fs = std::filesystem;

namespace {

/// Self-cleaning scratch directory for one test.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/taj-supervise-XXXXXX";
    const char *D = ::mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    Path = D ? D : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code Ec;
      fs::remove_all(Path, Ec);
    }
  }
};

std::string readWhole(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeWhole(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

/// Runs taj-cli through a shell (so env-var prefixes work), capturing
/// stdout+stderr merged.
std::string runCli(const std::string &Args, int &ExitCode) {
  // Args may carry leading "VAR=x" env prefixes; splice the binary in
  // after any such assignments.
  size_t Split = 0;
  while (true) {
    size_t SpaceAt = Args.find(' ', Split);
    std::string Tok = Args.substr(Split, SpaceAt - Split);
    if (Tok.find('=') == std::string::npos || Tok.compare(0, 2, "--") == 0)
      break;
    if (SpaceAt == std::string::npos) {
      Split = Args.size();
      break;
    }
    Split = SpaceAt + 1;
  }
  std::string Cmd = Args.substr(0, Split) + std::string(TAJ_CLI_PATH) + " " +
                    Args.substr(Split) + " 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int St = ::pclose(P);
  ExitCode = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
  return Out;
}

/// Writes a batch list of \p Copies lines naming the example app.
std::string writeList(const TempDir &T, int Copies) {
  std::string Path = T.Path + "/list.txt";
  std::string Text;
  for (int I = 0; I < Copies; ++I)
    Text += std::string(TAJ_EXAMPLE_TAJ) + "\n";
  writeWhole(Path, Text);
  return Path;
}

/// Writes the example app replicated \p K times, classes renamed per
/// copy: an app whose analysis needs several MB.
std::string writeReplica(const TempDir &T, int K) {
  const std::string Base = readWhole(TAJ_EXAMPLE_TAJ);
  std::string Text;
  for (int I = 0; I < K; ++I) {
    std::string Copy = Base;
    const std::string Tag = "Profile" + std::to_string(I);
    for (size_t At = Copy.find("Profile"); At != std::string::npos;
         At = Copy.find("Profile", At + Tag.size()))
      Copy.replace(At, 7, Tag);
    Text += Copy;
  }
  std::string Path = T.Path + "/replica.taj";
  writeWhole(Path, Text);
  return Path;
}

/// RLIMIT_AS cannot be exercised under ASan/TSan: the runtime's own
/// allocator fails first and reports instead of returning null.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizedBuild = true;
#else
constexpr bool SanitizedBuild = false;
#endif

/// Extracts an integer counter from a --stats-json file ("missing" = -1).
long long statOf(const std::string &JsonPath, const std::string &Name) {
  std::string J = readWhole(JsonPath);
  std::string Needle = "\"" + Name + "\":";
  size_t At = J.find(Needle);
  if (At == std::string::npos)
    return -1;
  return std::atoll(J.c_str() + At + Needle.size());
}

int exitedStatus(int Code) { return Code << 8; } // WIFEXITED encoding
int signaledStatus(int Sig) { return Sig; }      // WIFSIGNALED encoding

//===----------------------------------------------------------------------===//
// Wait-status classification
//===----------------------------------------------------------------------===//

TEST(Classify, ExitCodesMapToClasses) {
  EXPECT_EQ(classifyWaitStatus(exitedStatus(0), false), ExitClass::Clean);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(2), false), ExitClass::Truncated);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(1), false), ExitClass::Error);
  EXPECT_EQ(classifyWaitStatus(exitedStatus(WorkerOomExitCode), false),
            ExitClass::Oom);
  // A normal exit is never attributed to the watchdog.
  EXPECT_EQ(classifyWaitStatus(exitedStatus(0), true), ExitClass::Clean);
}

TEST(Classify, SignalsMapToClasses) {
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGSEGV), false),
            ExitClass::Crashed);
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGABRT), false),
            ExitClass::Crashed);
  // An unsolicited SIGKILL is the kernel OOM killer's signature...
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGKILL), false), ExitClass::Oom);
  // ...but the watchdog owns every signal it delivered itself.
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGKILL), true),
            ExitClass::Timeout);
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGTERM), true),
            ExitClass::Timeout);
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGTERM), false),
            ExitClass::Crashed);
  // RLIMIT_CPU's SIGXCPU is morally a timeout either way.
  EXPECT_EQ(classifyWaitStatus(signaledStatus(SIGXCPU), false),
            ExitClass::Timeout);
}

TEST(Classify, NamesRoundTripAndContributionsRank) {
  for (ExitClass C :
       {ExitClass::Clean, ExitClass::Truncated, ExitClass::Error,
        ExitClass::Crashed, ExitClass::Timeout, ExitClass::Oom}) {
    ExitClass Back;
    ASSERT_TRUE(exitClassFromName(exitClassName(C), Back));
    EXPECT_EQ(Back, C);
  }
  ExitClass Junk;
  EXPECT_FALSE(exitClassFromName("melted", Junk));
  EXPECT_EQ(exitContribution(ExitClass::Clean), 0);
  EXPECT_EQ(exitContribution(ExitClass::Truncated), 2);
  EXPECT_EQ(exitContribution(ExitClass::Error), 1);
  EXPECT_EQ(exitContribution(ExitClass::Crashed), 1);
  EXPECT_EQ(exitContribution(ExitClass::Timeout), 1);
  EXPECT_EQ(exitContribution(ExitClass::Oom), 1);
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(JournalTest, LineRoundTripsIncludingEscapes) {
  Attempt A;
  A.Line = 7;
  A.App = "web \"quoted\" \\backslash.taj other.taj";
  A.ConfigFp = "deadbeefdeadbeef";
  A.AttemptNo = 2;
  A.Class = ExitClass::Crashed;
  A.Signal = SIGSEGV;
  A.Exit = -1;
  A.Issues = 42;
  A.Terminal = true;

  Attempt B;
  ASSERT_TRUE(Journal::fromLine(Journal::toLine(A), B));
  EXPECT_EQ(B.Line, A.Line);
  EXPECT_EQ(B.App, A.App);
  EXPECT_EQ(B.ConfigFp, A.ConfigFp);
  EXPECT_EQ(B.AttemptNo, A.AttemptNo);
  EXPECT_EQ(B.Class, A.Class);
  EXPECT_EQ(B.Signal, A.Signal);
  EXPECT_EQ(B.Exit, A.Exit);
  EXPECT_EQ(B.Issues, A.Issues);
  EXPECT_EQ(B.Terminal, A.Terminal);
}

TEST(JournalTest, LoadSkipsTornAndForeignLines) {
  TempDir T;
  std::string Path = T.Path + "/j.jsonl";
  Attempt A;
  A.Line = 0;
  A.App = "a.taj";
  A.ConfigFp = "00";
  A.Class = ExitClass::Clean;
  A.Exit = 0;
  A.Terminal = true;
  Attempt B = A;
  B.Line = 1;
  B.App = "b.taj";
  // Good, foreign, good, torn tail (the supervisor died mid-write).
  writeWhole(Path, Journal::toLine(A) + "\nnot json at all\n" +
                       Journal::toLine(B) + "\n{\"line\":2,\"app\":\"c.t");
  std::vector<Attempt> Got = Journal::load(Path);
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0].App, "a.taj");
  EXPECT_EQ(Got[1].App, "b.taj");
}

TEST(JournalTest, MissingFileLoadsEmpty) {
  EXPECT_TRUE(Journal::load("/nonexistent/taj/journal.jsonl").empty());
}

TEST(JournalTest, AppendedRecordsLoadBack) {
  TempDir T;
  std::string Path = T.Path + "/j.jsonl";
  {
    Journal J(Path);
    for (unsigned I = 0; I < 3; ++I) {
      Attempt A;
      A.Line = I;
      A.App = "app" + std::to_string(I) + ".taj";
      A.ConfigFp = "fp";
      A.AttemptNo = I + 1;
      A.Class = ExitClass::Timeout;
      A.Signal = SIGKILL;
      A.Terminal = (I == 2);
      J.append(A);
    }
  }
  std::vector<Attempt> Got = Journal::load(Path);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[2].App, "app2.taj");
  EXPECT_EQ(Got[2].Class, ExitClass::Timeout);
  EXPECT_TRUE(Got[2].Terminal);
  EXPECT_FALSE(Got[0].Terminal);
}

//===----------------------------------------------------------------------===//
// Hard-limit derivation
//===----------------------------------------------------------------------===//

TEST(HardLimits, DerivedFromCooperativeLimits) {
  RunGuard::Limits Coop;
  Coop.DeadlineMs = 1000;
  Coop.MaxMemoryBytes = 100ull * 1024 * 1024;
  SupervisorConfig C;
  deriveHardLimits(Coop, C);
  EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 3000);
  EXPECT_EQ(C.HardMemoryBytes, 200ull * 1024 * 1024);
  EXPECT_EQ(C.CpuLimitSec, (3000 / 1000 + 1) * 16u);
}

TEST(HardLimits, UnlimitedStaysUnlimited) {
  SupervisorConfig C;
  deriveHardLimits(RunGuard::Limits(), C);
  EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 0);
  EXPECT_EQ(C.HardMemoryBytes, 0u);
  EXPECT_EQ(C.CpuLimitSec, 0u);
}

TEST(HardLimits, EnvironmentOverrides) {
  ::setenv("TAJ_HARD_DEADLINE_MS", "500", 1);
  ::setenv("TAJ_HARD_MAX_MEMORY_MB", "64", 1);
  ::setenv("TAJ_WATCHDOG_GRACE_MS", "100", 1);
  RunGuard::Limits Coop;
  Coop.DeadlineMs = 1000;
  SupervisorConfig C;
  deriveHardLimits(Coop, C);
  ::unsetenv("TAJ_HARD_DEADLINE_MS");
  ::unsetenv("TAJ_HARD_MAX_MEMORY_MB");
  ::unsetenv("TAJ_WATCHDOG_GRACE_MS");
  EXPECT_DOUBLE_EQ(C.HardDeadlineMs, 500);
  EXPECT_EQ(C.HardMemoryBytes, 64ull * 1024 * 1024);
  EXPECT_DOUBLE_EQ(C.GraceMs, 100);
}

//===----------------------------------------------------------------------===//
// CLI flag hygiene (range checks, dependent flags)
//===----------------------------------------------------------------------===//

TEST(CliFlags, OutOfRangeValuesAreUsageErrorsNotWraps) {
  int Exit = 0;
  // 5e9 > UINT32_MAX: must refuse, not wrap to a tiny budget.
  std::string Out = runCli("--budget=5e9 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  Out = runCli("--budget=1.5 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  Out = runCli("--jobs=2000 --batch=x", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  Out = runCli("--max-memory-mb=1e17 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("out of range"), std::string::npos) << Out;
  // Malformed input keeps the long-standing message.
  Out = runCli("--budget=abc x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("non-negative number"), std::string::npos) << Out;
}

TEST(CliFlags, SupervisionFlagsRequireTheirContext) {
  int Exit = 0;
  std::string Out = runCli("--jobs=1 x.taj", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--jobs requires --batch"), std::string::npos) << Out;
  Out = runCli("--batch=x --retry=2", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("require --jobs>=1"), std::string::npos) << Out;
  Out = runCli("--batch=x --jobs=1 --resume", Exit);
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--resume requires --journal"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Supervised batch end-to-end
//===----------------------------------------------------------------------===//

TEST(Supervised, JobsOneIsByteIdenticalToInProcess) {
  TempDir T;
  std::string List = writeList(T, 3);
  int E0 = 0, E1 = 0, E2 = 0;
  std::string Ref = runCli("--batch=" + List + " --jobs=0", E0);
  std::string J1 = runCli("--batch=" + List + " --jobs=1 --cache-dir=" +
                              T.Path + "/cc",
                          E1);
  std::string J2 = runCli("--batch=" + List + " --jobs=2 --cache-dir=" +
                              T.Path + "/cc",
                          E2);
  EXPECT_EQ(E0, 0);
  EXPECT_EQ(E1, 0);
  EXPECT_EQ(E2, 0);
  EXPECT_EQ(Ref, J1);
  EXPECT_EQ(Ref, J2);
}

TEST(Supervised, CooperativeTruncationPassesThrough) {
  TempDir T;
  std::string List = writeList(T, 1);
  int E0 = 0, E1 = 0;
  // --fail-at trips RunGuard cooperatively: the worker exits 2 on its own
  // and the supervisor must not retry or reclassify it.
  std::string Ref = runCli("--batch=" + List + " --fail-at=5", E0);
  std::string Got = runCli("--batch=" + List + " --fail-at=5 --jobs=1", E1);
  EXPECT_EQ(E0, 2);
  EXPECT_EQ(E1, 2);
  EXPECT_EQ(Ref, Got);
}

TEST(Supervised, CrashedWorkerRetriesAndRecovers) {
  // The fault arrives as a flag or through the environment; the degraded
  // retry must strip it either way.
  for (const std::string Fault : {"--crash-at=1 ", "TAJ_CRASH_AT=1 "}) {
    SCOPED_TRACE(Fault);
    TempDir T;
    std::string List = writeList(T, 1);
    std::string Journal = T.Path + "/j.jsonl";
    std::string StatsPath = T.Path + "/s.json";
    int Exit = 0;
    std::string Out =
        runCli(Fault + "--batch=" + List + " --jobs=1 --retry=1 --journal=" +
                   Journal + " --stats-json=" + StatsPath,
               Exit);
    EXPECT_EQ(Exit, 0) << Out;
    EXPECT_NE(Out.find("exit=0 issues=3"), std::string::npos) << Out;
    EXPECT_EQ(statOf(StatsPath, "supervise.spawned"), 2);
    EXPECT_EQ(statOf(StatsPath, "supervise.crashed"), 1);
    EXPECT_EQ(statOf(StatsPath, "supervise.retried"), 1);
    EXPECT_EQ(statOf(StatsPath, "supervise.recovered"), 1);
    EXPECT_EQ(statOf(StatsPath, "cli.issues"), 3);

    std::vector<Attempt> Recs = Journal::load(Journal);
    ASSERT_EQ(Recs.size(), 2u);
    EXPECT_EQ(Recs[0].Class, ExitClass::Crashed);
    EXPECT_EQ(Recs[0].Signal, SIGABRT);
    EXPECT_FALSE(Recs[0].Terminal);
    EXPECT_EQ(Recs[1].Class, ExitClass::Clean);
    EXPECT_EQ(Recs[1].AttemptNo, 2u);
    EXPECT_EQ(Recs[1].Issues, 3u);
    EXPECT_TRUE(Recs[1].Terminal);
  }
}

TEST(Supervised, ExhaustedRetriesAreTerminalErrors) {
  TempDir T;
  std::string List = writeList(T, 1);
  int Exit = 0;
  std::string Out =
      runCli("--batch=" + List + " --jobs=1 --crash-at=1 --retry=0", Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("(crashed: signal 6)"), std::string::npos) << Out;
}

TEST(Supervised, UnsolicitedSigkillClassifiesAsOom) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  // TAJ_CRASH_SIGNAL=9 makes --crash-at raise SIGKILL: the deterministic
  // stand-in for the kernel OOM killer.
  std::string Out = runCli("TAJ_CRASH_SIGNAL=9 --batch=" + List +
                               " --jobs=1 --crash-at=1 --retry=0" +
                               " --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("(oom)"), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.oom_killed"), 1);
}

TEST(Supervised, AddressSpaceBackstopTripsAsOom) {
  if (SanitizedBuild)
    GTEST_SKIP() << "sanitizer shadow memory defeats RLIMIT_AS";
  TempDir T;
  const std::string App = writeReplica(T, 64);
  const std::string List = T.Path + "/list.txt";
  writeWhole(List, App + "\n" + App + "\n");
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  // 1 MB of headroom over the worker's address space: the first
  // allocation past it fails and the worker dies as oom.
  std::string Out = runCli("TAJ_HARD_MAX_MEMORY_MB=1 --batch=" + List +
                               " --jobs=1 --retry=0 --stats-json=" +
                               StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 1) << Out;
  size_t First = Out.find("(oom)");
  ASSERT_NE(First, std::string::npos) << Out;
  EXPECT_NE(Out.find("(oom)", First + 1), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.oom_killed"), 2);
  // 16 MB of headroom is enough for the whole analysis: both apps finish
  // clean with every flow (three per copy). Nothing in the worker needs
  // address space beyond its heap, so nothing can abort it here.
  Out = runCli("TAJ_HARD_MAX_MEMORY_MB=16 --batch=" + List +
                   " --jobs=1 --retry=0",
               Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_EQ(Out.find("(crashed"), std::string::npos) << Out;
  First = Out.find("exit=0 issues=192");
  ASSERT_NE(First, std::string::npos) << Out;
  EXPECT_NE(Out.find("exit=0 issues=192", First + 1), std::string::npos)
      << Out;
  // Without the ceiling the same list runs clean.
  Out = runCli("--batch=" + List + " --jobs=1 --retry=0", Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_EQ(Out.find("(oom)"), std::string::npos) << Out;
}

TEST(Supervised, HungWorkerHitsWatchdogTimeout) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  std::string Out =
      runCli("TAJ_HARD_DEADLINE_MS=300 TAJ_WATCHDOG_GRACE_MS=200 --batch=" +
                 List + " --jobs=1 --hang-at=1 --retry=0 --stats-json=" +
                 StatsPath,
             Exit);
  EXPECT_EQ(Exit, 1) << Out;
  EXPECT_NE(Out.find("(timeout)"), std::string::npos) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.timed_out"), 1);
}

TEST(Supervised, HungWorkerRecoversOnRetry) {
  TempDir T;
  std::string List = writeList(T, 1);
  int Exit = 0;
  // The retry strips --hang-at (fault injection is a first-attempt
  // scenario), so attempt 2 completes under the degraded config.
  std::string Out =
      runCli("TAJ_HARD_DEADLINE_MS=300 TAJ_WATCHDOG_GRACE_MS=200 --batch=" +
                 List + " --jobs=1 --hang-at=1 --retry=1",
             Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("exit=0 issues=3"), std::string::npos) << Out;
}

TEST(Supervised, ResumeSkipsJournaledTerminalOutcomes) {
  TempDir T;
  std::string List = writeList(T, 2);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  runCli("--batch=" + List + " --jobs=1 --journal=" + Journal, Exit);
  ASSERT_EQ(Exit, 0);
  std::string Out = runCli("--batch=" + List + " --jobs=1 --journal=" +
                               Journal + " --resume --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_EQ(statOf(StatsPath, "supervise.resumed_skips"), 2);
  EXPECT_EQ(statOf(StatsPath, "supervise.spawned"), 0);
  // The skipped apps still print their framing, flagged as resumed, and
  // their recorded outcome still feeds the exit code.
  EXPECT_NE(Out.find("exit=0 issues=3 (resumed)"), std::string::npos) << Out;
}

TEST(Supervised, ResumeDistrustsOtherConfigsJournals) {
  TempDir T;
  std::string List = writeList(T, 1);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";
  int Exit = 0;
  runCli("--batch=" + List + " --jobs=1 --journal=" + Journal, Exit);
  ASSERT_EQ(Exit, 0);
  // Same list, different budget: the fingerprint differs, so the journal
  // must not satisfy --resume.
  runCli("--batch=" + List + " --jobs=1 --budget=1000 --journal=" + Journal +
             " --resume --stats-json=" + StatsPath,
         Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(statOf(StatsPath, "supervise.resumed_skips"), 0);
  EXPECT_EQ(statOf(StatsPath, "supervise.spawned"), 1);
}

TEST(Supervised, ResumeAfterSupervisorKilledMidBatch) {
  TempDir T;
  std::string List = writeList(T, 2);
  std::string Journal = T.Path + "/j.jsonl";
  std::string StatsPath = T.Path + "/s.json";

  // Start a supervisor in its own process group and SIGKILL the whole
  // group as soon as the journal holds the first terminal record.
  pid_t Sup = ::fork();
  ASSERT_GE(Sup, 0);
  if (Sup == 0) {
    ::setpgid(0, 0);
    std::string Cmd = std::string(TAJ_CLI_PATH) + " --batch=" + List +
                      " --jobs=1 --journal=" + Journal + " > " + T.Path +
                      "/run1.out 2>&1";
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
    ::_exit(127);
  }
  ::setpgid(Sup, Sup); // both sides set it: no fork/exec race
  bool SawTerminal = false;
  for (int I = 0; I < 2000 && !SawTerminal; ++I) {
    SawTerminal =
        readWhole(Journal).find("\"terminal\":true") != std::string::npos;
    if (!SawTerminal)
      ::usleep(5 * 1000);
  }
  EXPECT_TRUE(SawTerminal);
  ::kill(-Sup, SIGKILL);
  int St = 0;
  ::waitpid(Sup, &St, 0);

  // The journal survives the kill (possibly with a torn tail) and --resume
  // finishes only the remaining work.
  int Exit = 0;
  std::string Out = runCli("--batch=" + List + " --jobs=1 --journal=" +
                               Journal + " --resume --stats-json=" + StatsPath,
                           Exit);
  EXPECT_EQ(Exit, 0) << Out;
  long long Skips = statOf(StatsPath, "supervise.resumed_skips");
  long long Spawned = statOf(StatsPath, "supervise.spawned");
  EXPECT_GE(Skips, 1);
  EXPECT_EQ(Skips + Spawned, 2);
  // Both apps end clean with the full issue set either way.
  size_t First = Out.find("exit=0 issues=3");
  ASSERT_NE(First, std::string::npos) << Out;
  EXPECT_NE(Out.find("exit=0 issues=3", First + 1), std::string::npos) << Out;
}

TEST(Supervised, WorkersDieWithTheSupervisor) {
  TempDir T;
  std::string List = writeList(T, 1);
  // The unique cache path marks our worker's cmdline in /proc.
  std::string Marker = T.Path + "/orphan-cc";

  pid_t Sup = ::fork();
  ASSERT_GE(Sup, 0);
  if (Sup == 0) {
    std::string Cmd = "exec " + std::string(TAJ_CLI_PATH) + " --batch=" +
                      List + " --jobs=1 --hang-at=1 --retry=0 --cache-dir=" +
                      Marker + " > /dev/null 2>&1";
    ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), (char *)nullptr);
    ::_exit(127);
  }

  auto WorkerAlive = [&] {
    for (const auto &DE : fs::directory_iterator("/proc")) {
      std::string Name = DE.path().filename().string();
      if (Name.empty() || !std::isdigit(static_cast<unsigned char>(Name[0])))
        continue;
      if (std::to_string(Sup) == Name)
        continue; // the supervisor itself also carries the marker
      std::string CmdLine = readWhole((DE.path() / "cmdline").string());
      if (CmdLine.find(Marker) != std::string::npos)
        return true;
    }
    return false;
  };

  // Wait for the (hung) worker to appear, kill ONLY the supervisor, and
  // expect PR_SET_PDEATHSIG to reap the worker — no orphan survives.
  bool Appeared = false;
  for (int I = 0; I < 2000 && !Appeared; ++I) {
    Appeared = WorkerAlive();
    if (!Appeared)
      ::usleep(5 * 1000);
  }
  ASSERT_TRUE(Appeared);
  ::kill(Sup, SIGKILL);
  int St = 0;
  ::waitpid(Sup, &St, 0);
  bool Gone = false;
  for (int I = 0; I < 600 && !Gone; ++I) {
    Gone = !WorkerAlive();
    if (!Gone)
      ::usleep(5 * 1000);
  }
  EXPECT_TRUE(Gone);
}

} // namespace
