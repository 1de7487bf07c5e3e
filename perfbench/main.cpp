//===- perfbench/main.cpp - Benchmark harness entry point ------*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --cli PATH --work DIR --expected PATH [--root DIR]
///           [--expect-tp N]
///
/// Runs one workload and prints one JSON object as the last line of
/// stdout: {"correct", "attempted", "failed", "metrics"}. Exit 0 when
/// every correctness gate held, 1 when one tripped, 2 on usage errors.
/// perfbench/run.py builds this binary and supplies the paths.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <sched.h>

using namespace perfbench;

namespace {

/// Restricts this process, its threads and every process it starts to the
/// last two CPUs it may run on. The program's own parallelism is two (the
/// server pool, --jobs, the client loop), and on a shared VM the workloads
/// that kept more CPUs busy than that were the ones whose vCPUs the host
/// preempted: steal time of 3-17% against under 1% for the single-threaded
/// suites, and a median that moved by up to 40% between runs.
void pinToTwoCpus() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  cpu_set_t Use;
  CPU_ZERO(&Use);
  int Picked = 0;
  for (int C = CPU_SETSIZE - 1; C >= 0 && Picked < 2; --C)
    if (CPU_ISSET(C, &Allowed)) {
      CPU_SET(C, &Use);
      ++Picked;
    }
  ::sched_setaffinity(0, sizeof(Use), &Use);
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite-cold|suite-warm|serve-mix|batch-jobs --seed N "
               "--seconds S --trace 0|1 --cli PATH --work DIR "
               "--expected PATH [--root DIR] [--expect-tp N]\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End || errno || S[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      if (!parseU64(V, A.Seed))
        return usage("--seed needs a non-negative integer");
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseU64(V, N) || N == 0 || N > 600)
        return usage("--seconds needs an integer in [1, 600]");
      A.Seconds = static_cast<double>(N);
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace needs 0 or 1");
      A.Trace = V[0] == '1';
    } else if (Flag == "--root") {
      A.Root = V;
    } else if (Flag == "--cli") {
      A.Cli = V;
    } else if (Flag == "--work") {
      A.Work = V;
    } else if (Flag == "--expected") {
      A.Expected = V;
    } else if (Flag == "--expect-tp") {
      if (!parseU64(V, N))
        return usage("--expect-tp needs a non-negative integer");
      A.ExpectTp = static_cast<int64_t>(N);
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || A.Cli.empty() || A.Work.empty() || A.Expected.empty())
    return usage("--seed, --cli, --work and --expected are required");
  std::error_code Ec;
  std::filesystem::create_directories(A.Work, Ec);
  if (!std::filesystem::is_directory(A.Work))
    return usage("cannot create the --work directory");

  pinToTwoCpus();
  installExitHandlers();
  Result R;
  if (A.Workload == "suite-cold")
    runSuite(A, /*Warm=*/false, R);
  else if (A.Workload == "suite-warm")
    runSuite(A, /*Warm=*/true, R);
  else if (A.Workload == "serve-mix")
    runServeMix(A, R);
  else if (A.Workload == "batch-jobs")
    runBatchJobs(A, R);
  else
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  killTrackedChildren();
  if (R.attempted() == 0)
    R.gateFailure("no operation completed");
  std::printf("%s\n", R.json().c_str());
  std::fflush(stdout);
  return R.correct() ? 0 : 1;
}
