/**
 * @file
 * The three workloads and the layer probes. Each entry point runs its
 * set-up (repeated, with the golden check), then the timed phase, and
 * fills a Result. With Options::trace every other batch (corpus sweep,
 * service call, heap round) records spans, so the run can report its
 * own tracing overhead from batches that saw the same host conditions.
 */
#ifndef WALLBENCH_WORKLOADS_HPP
#define WALLBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace wallbench {

/** The 105-program microbench corpus x procs {1,2,4,10}, one fresh
 *  runtime per program (microbench::runPatternOnce). */
void runCorpus(const Options& o, Result& r);

/** The guarded Table 2 service at leakRate 0.10 on the Reclaim rung
 *  (service::runGuardService), one call per unit. */
void runService(const Options& o, Result& r);

/** A benchmark-owned mutator program over a large live graph. */
void runHeap(const Options& o, Result& r);

/** Runtime construct/run/destroy and forced-cycle probes. */
void runProbes(const Options& o, Result& r);

/** Set-up repetitions per run; set-up time is their median. */
inline constexpr int kSetupReps = 5;

} // namespace wallbench

#endif // WALLBENCH_WORKLOADS_HPP
