//===- perfbench/Workloads.h - The four benchmark workloads ----*- C++ -*-===//
//
// Part of the TAJ reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef TAJ_PERFBENCH_WORKLOADS_H
#define TAJ_PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

/// Every workload sets up this many times per run and reports the median
/// set-up time; the last set-up is the one measured.
constexpr int SetupReps = 9;

/// suite-cold (\p Warm false) and suite-warm (\p Warm true): the 22
/// benchgen apps under hybrid-unbounded, in-process.
void runSuite(const Args &A, bool Warm, Result &R);
/// serve-mix: a taj-cli --serve daemon under a 2-client closed loop.
void runServeMix(const Args &A, Result &R);
/// batch-jobs: taj-cli --batch --jobs=2 invocations.
void runBatchJobs(const Args &A, Result &R);

} // namespace perfbench

#endif // TAJ_PERFBENCH_WORKLOADS_H
