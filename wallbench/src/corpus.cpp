/**
 * @file
 * corpus: a developer running the leak checker over a test suite.
 *
 * Unit i checks one program, pattern i mod 105 of the registry, the
 * way `go test -cpu 1,2,4,10` would: four microbench::runPatternOnce
 * runs, at procs 1, 2, 4 and 10, each in a fresh default runtime with
 * seed mixSeed(--seed, 4i + k). A unit's host time is one latency
 * sample. The cost is dominated by runtime set-up and teardown,
 * scheduling and one small GOLF cycle per run.
 */
#include <algorithm>
#include <array>
#include <cstdio>

#include "microbench/harness.hpp"
#include "microbench/registry.hpp"
#include "workloads.hpp"

using namespace golf;

namespace wallbench {

namespace {

using microbench::Pattern;
using microbench::RunOutcome;

constexpr std::array<int, 4> kProcs = {1, 2, 4, 10};
/** Seed of the golden sweep checked in set-up. */
constexpr uint64_t kGoldenSeed = 20250301;

struct Run
{
    const Pattern* pattern;
    int procs;
    uint64_t seed;
};

/** Run one program at one procs value, check it, and fold its modeled
 *  outputs into d. Returns the host time in microseconds. */
double
runOnce(const Run& u, int gcWorkers, Result& r, Digest& d,
        RunOutcome& out)
{
    microbench::HarnessConfig cfg;
    cfg.procs = u.procs;
    cfg.seed = u.seed;
    cfg.gcWorkers = gcWorkers;
    const uint64_t t0 = nowNs();
    {
        SpanScope s("microbench.runPatternOnce");
        out = microbench::runPatternOnce(*u.pattern, cfg);
    }
    const double us = static_cast<double>(nowNs() - t0) / 1e3;

    const Pattern& p = *u.pattern;
    const bool ok = !out.runtimeFailure && out.unexpectedReports == 0 &&
                    out.resurrections == 0 &&
                    (!p.correct || out.individualReports == 0);
    r.check(ok, "corpus " + p.name + (p.correct ? " (correct)" : "") +
                    " procs=" + std::to_string(u.procs) +
                    " seed=" + std::to_string(u.seed) +
                    ": failure=" + out.failureMessage +
                    " unexpected=" + std::to_string(out.unexpectedReports) +
                    " reports=" + std::to_string(out.individualReports));

    d.add(p.name);
    d.add(static_cast<uint64_t>(u.procs));
    d.add(u.seed);
    d.add(out.individualReports);
    d.add(out.unexpectedReports);
    for (const auto& [label, n] : out.detectedPerLabel) {
        d.add(label);
        d.add(static_cast<uint64_t>(n));
    }
    d.add(out.gcCycles);
    d.add(out.heapPeak);
    d.add(out.quarantined);
    d.add(out.resurrections);
    d.add(out.cancelsDelivered);
    d.add(out.runtimeFailure ? 1 : 0);
    return us;
}

/** Per-unit observations the timed phase aggregates. */
struct UnitStats
{
    double ms = 0;
    std::array<double, kProcs.size()> runUs{};
    double markUs = 0;
    uint64_t cycles = 0, reports = 0, detectedSites = 0, heapPeak = 0;
};

/** Unit i: one program at every procs value. */
UnitStats
runUnit(const std::vector<Pattern>& all, uint64_t base, uint64_t i,
        int gcWorkers, Result& r, Digest& d)
{
    UnitStats st;
    RunOutcome out;
    const uint64_t t0 = nowNs();
    for (size_t k = 0; k < kProcs.size(); ++k) {
        const Run run{&all[i % all.size()], kProcs[k],
                      mixSeed(base, i * kProcs.size() + k)};
        st.runUs[k] = runOnce(run, gcWorkers, r, d, out);
        st.markUs += out.avgMarkWallUs / kProcs.size();
        st.cycles += out.gcCycles;
        st.reports += out.individualReports;
        for (const auto& [label, n] : out.detectedPerLabel)
            st.detectedSites += n > 0 ? 1 : 0;
        st.heapPeak = std::max(st.heapPeak, out.heapPeak);
    }
    st.ms = static_cast<double>(nowNs() - t0) / 1e6;
    return st;
}

} // namespace

void
runCorpus(const Options& o, Result& r)
{
    const std::string src = sourceName(o);
    const std::vector<Pattern>& all =
        microbench::Registry::instance().all();
    const uint64_t perSweep = all.size();

    // Set-up = warm-up: one golden sweep, whose digest must match the
    // one recorded for the seed-independent golden inputs.
    Phase ph;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const uint64_t t0 = nowNs();
        Digest golden;
        for (uint64_t i = 0; i < perSweep; ++i)
            runUnit(all, kGoldenSeed, i, o.gcWorkers, r, golden);
        ph.setupSeconds.push_back(static_cast<double>(nowNs() - t0) /
                                  1e9);
        r.noteGolden(golden.hex());
    }

    // Timed phase. The first sweep is the counted prefix: its digest
    // and counts are exact for a given seed.
    Digest seedDigest;
    UnitStats counted;
    std::array<std::vector<double>, kProcs.size()> usByProcs;
    std::vector<double> markUs, latencyMs;
    std::array<std::vector<double>, 2> unitRates; // Untraced, traced.

    const uint64_t fixed = static_cast<uint64_t>(o.units);
    const double budgetNs = o.seconds * 1e9;
    const uint64_t t0 = nowNs();
    const double c0 = cpuSeconds();
    for (uint64_t i = 0;; ++i) {
        const double elapsed = static_cast<double>(nowNs() - t0);
        if (fixed ? i >= fixed : (i >= perSweep && elapsed >= budgetNs))
            break;
        // Traced runs trace every other sweep, so traced and untraced
        // units cover the same programs under the same host conditions.
        const bool traced = o.trace && (i / perSweep) % 2 == 1;
        tracer().setEnabled(traced);
        Digest scratch;
        const UnitStats st = runUnit(all, o.seed, i, o.gcWorkers, r,
                                     i < perSweep ? seedDigest : scratch);
        latencyMs.push_back(st.ms);
        unitRates[traced ? 1 : 0].push_back(1e3 / st.ms);
        markUs.push_back(st.markUs);
        for (size_t k = 0; k < kProcs.size(); ++k)
            usByProcs[k].push_back(st.runUs[k]);
        if (i < perSweep) {
            counted.cycles += st.cycles;
            counted.reports += st.reports;
            counted.detectedSites += st.detectedSites;
            counted.heapPeak = std::max(counted.heapPeak, st.heapPeak);
        }
    }
    tracer().setEnabled(false);
    ph.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    ph.cpuS = cpuSeconds() - c0;
    r.seedDigest = seedDigest.hex();

    if (!o.trace) {
        // The gated latency is one whole-corpus check (a sweep): a
        // program takes ~1 ms, so a per-program tail would be p99.9
        // of ~50K samples and move with any 50 ms host stall.
        std::vector<double> sweepMs, sweepRates;
        for (size_t b = 0; b + perSweep <= latencyMs.size(); b += perSweep) {
            double ms = 0;
            for (size_t i = b; i < b + perSweep; ++i)
                ms += latencyMs[i];
            sweepMs.push_back(ms);
            sweepRates.push_back(static_cast<double>(perSweep) * 1e3 / ms);
        }
        addCommonEndToEnd(r, ph, sweepRates, "programs_per_s", "sweeps",
                          sweepMs, "sweep");
        const Tail tail = tailOf(latencyMs);
        char detail[64];
        std::snprintf(detail, sizeof detail, "p%g of %zu samples",
                      tail.percentile, tail.samples);
        r.named.push_back({"program_ms_p50", median(latencyMs), "ms", "wall",
                           "not gated"});
        r.named.push_back({"program_ms_tail", tail.value, "ms", "wall",
                           std::string(detail) + ", not gated"});
    } else {
        r.addLayer({"trace.overhead_pct",
                    overheadPct(unitRates[0], unitRates[1]),
                    "%", "wall", "programs/s, untraced vs traced sweeps"},
                   src);
    }

    for (size_t k = 0; k < kProcs.size(); ++k) {
        r.addLayer({"microbench.program_us.p" + std::to_string(kProcs[k]),
                    median(usByProcs[k]), "us", "wall",
                    "median of " + std::to_string(usByProcs[k].size()) +
                        " runs"},
                   src);
    }
    r.addLayer({"golf.mark_us", median(markUs), "us", "wall",
                "median avgMarkWallUs per program"},
               src);
    r.addLayer({"golf.cycles", static_cast<double>(counted.cycles), "count",
                "modeled", "counted sweep"},
               src);
    r.addLayer({"golf.reports", static_cast<double>(counted.reports),
                "count", "modeled", "counted sweep"},
               src);

    auto modeled = [&](const char* name, uint64_t v, const char* unit) {
        r.modeled.push_back({name, static_cast<double>(v), unit, "modeled",
                             "counted sweep"});
    };
    modeled("modeled.corpus.programs", perSweep, "count");
    modeled("modeled.corpus.reports", counted.reports, "count");
    modeled("modeled.corpus.detected_sites", counted.detectedSites, "count");
    modeled("modeled.corpus.gc_cycles", counted.cycles, "count");
    modeled("modeled.corpus.heap_peak_max", counted.heapPeak, "bytes");
}

} // namespace wallbench
