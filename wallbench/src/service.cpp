/**
 * @file
 * service: the paper's Table 2 service, guarded, at a 10% leak rate.
 *
 * Unit i is one service::runGuardService call on the Reclaim rung
 * with 32 closed-loop connections (in virtual time), seeded
 * mixSeed(--seed, i). A call runs about one GC cycle per simulated
 * request, so the fixed per-cycle STW, fixpoint and reclaim costs
 * dominate over marking, and the 800 KB request maps add host memory
 * traffic. The metric that matters is simulated requests served per
 * host second.
 */
#include <array>
#include <cstring>

#include "service/guard_service.hpp"
#include "workloads.hpp"

using namespace golf;

namespace wallbench {

namespace {

constexpr uint64_t kGoldenSeed = 20250302;

service::GuardServiceConfig
configFor(uint64_t seed, support::VTime duration, int gcWorkers)
{
    service::GuardServiceConfig cfg;
    cfg.recovery = rt::Recovery::Reclaim;
    cfg.leakRate = 0.10;
    cfg.connections = 32;
    cfg.seed = seed;
    cfg.gcWorkers = gcWorkers;
    cfg.warmup = 1 * support::kSecond;
    cfg.duration = duration;
    return cfg;
}

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Run one call, check it, digest its modeled outputs. */
service::GuardResult
runUnit(const service::GuardServiceConfig& cfg, Result& r, Digest& d,
        double& ms)
{
    const uint64_t t0 = nowNs();
    service::GuardResult g;
    {
        SpanScope s("service.runGuardService");
        g = service::runGuardService(cfg);
    }
    ms = static_cast<double>(nowNs() - t0) / 1e6;

    const auto& m = g.metrics;
    r.check(!g.failed && m.resurrections == 0 && g.fatalOoms == 0 &&
                m.served > 0 && g.deadlocksDetected > 0,
            "service seed=" + std::to_string(cfg.seed) +
                ": failed=" + std::to_string(g.failed) +
                " resurrections=" + std::to_string(m.resurrections) +
                " served=" + std::to_string(m.served) +
                " deadlocks=" + std::to_string(g.deadlocksDetected));

    d.add(cfg.seed);
    for (double v : {g.goodputRps, g.latency.p50, g.latency.p90,
                     g.latency.p99, g.latency.max})
        d.add(bits(v));
    for (uint64_t v :
         {uint64_t(m.served), uint64_t(m.goodput), uint64_t(m.recovered),
          uint64_t(m.cancelled), uint64_t(m.cancelDeaths),
          uint64_t(m.shed), uint64_t(m.memShed), uint64_t(m.retried),
          uint64_t(m.timedOut), uint64_t(m.breakerOpens),
          uint64_t(m.resurrections), m.watchdogTriggers,
          uint64_t(g.deadlocksDetected), g.heapInuse, g.numGC,
          g.pauseTotalNs, g.heapPeak, g.fatalOoms, g.memScavenges,
          g.memForcedGolfs})
        d.add(v);
    return g;
}

} // namespace

void
runService(const Options& o, Result& r)
{
    const std::string src = sourceName(o);
    const support::VTime duration =
        (o.small ? 2 : 3) * support::kSecond;
    // Calls in the counted prefix: their digest and counts are exact.
    const uint64_t counted = 2;

    Phase ph;
    double ms = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const uint64_t t0 = nowNs();
        Digest golden;
        runUnit(configFor(kGoldenSeed, 3 * support::kSecond, o.gcWorkers),
                r, golden, ms);
        ph.setupSeconds.push_back(static_cast<double>(nowNs() - t0) /
                                  1e9);
        r.noteGolden(golden.hex());
    }

    Digest seedDigest;
    service::GuardResult first;
    service::GuardMetrics sum;
    uint64_t cycles = 0, deadlocks = 0;
    std::vector<double> latencyMs, callRates;
    std::array<std::vector<double>, 2> tracedRates; // Untraced, traced.

    const uint64_t fixed = static_cast<uint64_t>(o.units);
    const double budgetNs = o.seconds * 1e9;
    const uint64_t t0 = nowNs();
    const double c0 = cpuSeconds();
    for (uint64_t i = 0;; ++i) {
        const double elapsed = static_cast<double>(nowNs() - t0);
        if (fixed ? i >= fixed : (i >= counted && elapsed >= budgetNs))
            break;
        // Traced runs trace every other call.
        const bool traced = o.trace && i % 2 == 1;
        tracer().setEnabled(traced);
        Digest scratch;
        const service::GuardResult g =
            runUnit(configFor(mixSeed(o.seed, i), duration, o.gcWorkers),
                    r, i < counted ? seedDigest : scratch, ms);
        latencyMs.push_back(ms);
        callRates.push_back(static_cast<double>(g.metrics.served) * 1e3 / ms);
        tracedRates[traced ? 1 : 0].push_back(callRates.back());
        if (i == 0)
            first = g;
        if (i < counted) {
            sum.served += g.metrics.served;
            sum.retried += g.metrics.retried;
            sum.timedOut += g.metrics.timedOut;
            sum.shed += g.metrics.shed;
            sum.watchdogTriggers += g.metrics.watchdogTriggers;
            cycles += g.numGC;
            deadlocks += g.deadlocksDetected;
        }
    }
    tracer().setEnabled(false);
    ph.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    ph.cpuS = cpuSeconds() - c0;
    r.seedDigest = seedDigest.hex();

    if (!o.trace) {
        addCommonEndToEnd(r, ph, callRates, "sim_requests_per_s", "calls",
                          latencyMs, "service_run");
    } else {
        r.addLayer({"trace.overhead_pct",
                    overheadPct(tracedRates[0], tracedRates[1]), "%", "wall",
                    "sim requests/s, untraced vs traced calls"},
                   src);
    }

    auto count = [&](const char* name, uint64_t v) {
        r.addLayer({name, static_cast<double>(v), "count", "modeled",
                    "counted calls"},
                   src);
    };
    count("service.served", sum.served);
    count("service.retried", sum.retried);
    count("service.timed_out", sum.timedOut);
    count("service.shed", sum.shed);
    count("guard.watchdog_triggers", sum.watchdogTriggers);
    count("golf.cycles", cycles);
    count("golf.deadlocks", deadlocks);

    auto modeled = [&](const char* name, double v, const char* unit) {
        r.modeled.push_back({name, v, unit, "modeled", "first call"});
    };
    modeled("modeled.service.goodput_rps", first.goodputRps, "1/s");
    modeled("modeled.service.latency_ms_p50", first.latency.p50, "ms");
    modeled("modeled.service.latency_ms_p99", first.latency.p99, "ms");
    modeled("modeled.service.pause_total_ns",
            static_cast<double>(first.pauseTotalNs), "ns");
    modeled("modeled.service.heap_peak",
            static_cast<double>(first.heapPeak), "bytes");
    modeled("modeled.service.deadlocks",
            static_cast<double>(first.deadlocksDetected), "count");
}

} // namespace wallbench
