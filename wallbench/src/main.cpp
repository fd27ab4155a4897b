/**
 * @file
 * wallbench: golfcc's wall-clock benchmark.
 *
 *   wallbench --workload corpus|service|heap --seed N --seconds S
 *             --trace 0|1 --golden FILE [--trace-out FILE] [--sha SHA]
 *             [--units N] [--small] [--gc-workers N] [--default-malloc]
 *
 * Prints one line per number (tagged wall or modeled), the host
 * fingerprint, the golden and seed digests, and as its last line one
 * JSON object: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. See README.md next to this directory.
 */
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "runtime/runtime.hpp"
#include "workloads.hpp"

using namespace golf;
using namespace wallbench;

namespace {

/** glibc's largest allowed mmap threshold on 64-bit hosts. */
constexpr int kMallocMmapThreshold = 32 << 20;
/** Higher than any run's heap: the arena is never trimmed. */
constexpr int kMallocTrimThreshold = 1 << 30;

void
usage()
{
    std::fprintf(stderr,
                 "usage: wallbench --workload corpus|service|heap --seed N "
                 "--seconds S --trace 0|1 --golden FILE [--trace-out FILE] "
                 "[--sha SHA] [--units N] [--small] [--gc-workers N] "
                 "[--default-malloc]\n");
}

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--small") {
            o.small = true;
            continue;
        }
        if (a == "--default-malloc") {
            o.defaultMalloc = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "1") == 0;
            if (!o.trace && std::strcmp(v, "0") != 0)
                return false;
        } else if (a == "--units") {
            o.units = std::strtol(v, &end, 10);
        } else if (a == "--gc-workers") {
            o.gcWorkers = static_cast<int>(std::strtol(v, &end, 10));
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else if (a == "--golden") {
            o.goldenPath = v;
        } else if (a == "--sha") {
            o.sha = v;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return (o.workload == "corpus" || o.workload == "service" ||
            o.workload == "heap") &&
           o.seconds > 0 && o.units >= 0 && o.gcWorkers >= 0 &&
           !o.goldenPath.empty();
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Run one workload and hold its set-up digest to the golden one. */
void
runChecked(const Options& o, Result& r)
{
    if (o.workload == "corpus")
        runCorpus(o, r);
    else if (o.workload == "service")
        runService(o, r);
    else
        runHeap(o, r);
    const std::string want = goldenFor(o.goldenPath, o.workload);
    r.check(!want.empty() && want == r.goldenDigest,
            o.workload + " golden digest " + r.goldenDigest +
                " != recorded " + (want.empty() ? "(none)" : want));
}

/** The fixed-work run that fills per-layer metrics the workload under
 *  test does not reach: two reduced-size corpus sweeps, two
 *  reduced-size service calls, or ten rounds of the full-size heap
 *  program (its marker and allocator costs depend on the graph size).
 *  Each traces every other sweep, call or round. */
Options
fillOptions(const Options& o, const std::string& workload)
{
    Options f = o;
    f.workload = workload;
    f.small = workload != "heap";
    f.units = workload == "corpus" ? 210 : workload == "service" ? 2 : 10;
    return f;
}

/**
 * Fix glibc's malloc policy for the whole run. Left alone, glibc raises
 * its mmap threshold to the largest mmapped block freed so far, and
 * trims the arena after a runtime is torn down only when no live block
 * sits near the arena top. Which block sits there depends on the seed
 * and the address layout: corpus runs switched, seed by seed and some
 * mid-run, between ~300 and ~75-125 page faults per program at rates up
 * to 2.6x apart. Serving every block up to 32 MiB from an arena never
 * trimmed gives every run the same policy, that of an allocator that
 * keeps freed memory. --default-malloc leaves glibc's policy alone.
 */
void
fixMallocPolicy()
{
    mallopt(M_MMAP_THRESHOLD, kMallocMmapThreshold);
    mallopt(M_TRIM_THRESHOLD, kMallocTrimThreshold);
}

void
printMetric(const char* kind, const Metric& m)
{
    std::printf("%-7s %-26s %16.6f %-6s [%s] %s\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.plane, m.detail.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o)) {
        usage();
        return 2;
    }
    if (!o.defaultMalloc)
        fixMallocPolicy();

    rt::Config resolved;
    resolved.gcWorkers = o.gcWorkers;
    std::printf("# wallbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.small ? " small" : "");
    std::printf("# host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
                "gcWorkers=%d malloc=%s sha=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                WALLBENCH_COMPILER, WALLBENCH_BUILD_TYPE,
                resolved.resolvedGcWorkers(),
                o.defaultMalloc ? "glibc-default" : "fixed", o.sha.c_str());
    std::fflush(stdout);

    Result r;
    runChecked(o, r);

    if (o.trace) {
        // Per-layer metrics this workload does not reach come from a
        // fixed-work run of a workload that does.
        for (const char* other : {"heap", "corpus", "service"}) {
            if (o.workload == other)
                continue;
            Result pr;
            runChecked(fillOptions(o, other), pr);
            r.attempted += pr.attempted;
            r.failed += pr.failed;
            for (const std::string& f : pr.failures)
                r.failures.push_back(f);
            for (const Metric& m : pr.layer) {
                if (!r.hasLayer(m.name))
                    r.layer.push_back(m);
            }
        }
        tracer().setEnabled(true);
        runProbes(o, r);
        tracer().setEnabled(false);
        if (!o.traceOut.empty() && !tracer().write(o.traceOut))
            r.check(false, "cannot write spans to " + o.traceOut);
        for (const Tracer::SelfTime& st : tracer().selfTimes()) {
            std::printf("span    %-26s count=%zu total_ms=%.3f self_ms=%.3f\n",
                        st.name.c_str(), st.count, st.totalMs, st.selfMs);
        }
    }

    for (const Metric& m : r.endToEnd)
        printMetric("e2e", m);
    for (const Metric& m : r.named)
        printMetric("named", m);
    for (const Metric& m : r.layer)
        printMetric("layer", m);
    for (const Metric& m : r.modeled)
        printMetric("modeled", m);
    const double errorRate =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 1.0;
    std::printf("named   %-26s %16.6f %-6s [wall] %llu of %llu units\n",
                "error_rate", errorRate, "ratio",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::printf("digest  golden.%-19s %s [modeled]\n", o.workload.c_str(),
                r.goldenDigest.c_str());
    std::printf("digest  seed.%-21s %s [modeled]\n", o.workload.c_str(),
                r.seedDigest.c_str());
    for (const std::string& f : r.failures)
        std::printf("FAIL    %s\n", f.c_str());

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    const std::vector<Metric>& out = o.trace ? r.layer : r.endToEnd;
    for (size_t i = 0; i < out.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
