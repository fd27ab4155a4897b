/**
 * @file
 * Shared pieces of the wall-clock benchmark: host clocks, sample
 * statistics, the modeled-output digest, the in-memory span recorder
 * and the result record every workload fills in.
 *
 * Two planes are kept apart throughout: `wall` numbers are host
 * measurements (the performance metrics), `modeled` numbers are the
 * simulator's virtual-time outputs. Modeled numbers are printed and
 * digested so a change that moves them shows up as a correctness
 * failure, but they are never reported as performance.
 */
#ifndef WALLBENCH_COMMON_HPP
#define WALLBENCH_COMMON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace wallbench {

/// @{ Host clocks.
uint64_t nowNs();          ///< steady_clock, nanoseconds.
double cpuSeconds();       ///< Process user+sys CPU, all threads.
double peakRssMb();        ///< Process peak resident set size.
/// @}

/** Derive an independent 64-bit seed from a base seed and an index
 *  (splitmix64 finalizer), so unit i's inputs depend only on
 *  (--seed, i). */
uint64_t mixSeed(uint64_t base, uint64_t index);

/** FNV-1a over 64-bit words and strings: the modeled-output digest. */
class Digest
{
  public:
    void add(uint64_t v);
    void add(std::string_view s);
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/// @{ Sample statistics (inputs are copied, then sorted).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/** (q3 - q1) / median: the spread a run reports next to a median. */
double relativeIqr(const std::vector<double>& v);

/** The highest percentile of the ladder p99.9/p99/p95/p90/p75/p50
 *  that has at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double percentile = 0; ///< 0 when fewer than 20 samples exist.
    size_t samples = 0;
    size_t beyond = 0;
};
Tail tailOf(const std::vector<double>& v);
/// @}

/** One recorded span: name, host start/end, and the causing span. */
struct Span
{
    const char* name;
    uint64_t startNs;
    uint64_t endNs;
    int32_t parent; ///< Index into the span vector, -1 for a root.
};

/**
 * In-memory span recorder. Spans are recorded only while enabled and
 * are written out once, when the run ends. Every span is recorded
 * from the benchmark's own code, around a call into a golfcc layer;
 * its parent is the innermost span still open (one driver thread).
 */
class Tracer
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its index, or -1 when disabled. Spans
     *  close in reverse order of opening. */
    int32_t begin(const char* name);
    void end(int32_t id);
    /** Record a closed span whose bounds were measured elsewhere. */
    void add(const char* name, uint64_t startNs, uint64_t endNs);

    /** Per-name totals: a span's self time is its duration minus the
     *  part of it that its children cover. */
    struct SelfTime
    {
        std::string name;
        size_t count = 0;
        double totalMs = 0;
        double selfMs = 0;
    };
    std::vector<SelfTime> selfTimes() const;

    /** Write one JSON object per span; false on an I/O error. */
    bool write(const std::string& path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** The process-wide recorder. */
Tracer& tracer();

/** RAII span around one call. */
class SpanScope
{
  public:
    explicit SpanScope(const char* name) : id_(tracer().begin(name)) {}
    ~SpanScope() { tracer().end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    int32_t id_;
};

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Run exactly this many units (rounds for heap) instead of
     *  measuring for `seconds`: the fixed-work mode the benchmark's
     *  own tests compare digests and counts in. 0 = timed. */
    long units = 0;
    /** Reduced-size inputs (the benchmark's own tests). */
    bool small = false;
    /** rt::Config::gcWorkers for every runtime the run creates. */
    int gcWorkers = 0;
    /** Leave glibc's malloc thresholds to glibc (see main.cpp). */
    bool defaultMalloc = false;
    std::string traceOut;
    std::string goldenPath;
    std::string sha = "unknown";
};

/** One printed number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    const char* plane = "wall"; ///< "wall" or "modeled".
    std::string detail;         ///< Median/spread/sample count.
};

/** Everything a workload run reports. */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< First few failure messages.

    /** Count one checked unit; record the message when it failed. */
    void check(bool ok, const std::string& what);

    std::vector<Metric> endToEnd;  ///< BENCHMARK.json end_to_end.
    std::vector<Metric> named;     ///< Workload-specific names.
    std::vector<Metric> layer;     ///< BENCHMARK.json per_layer.
    std::vector<Metric> modeled;   ///< Simulator outputs.

    /** Add a per-layer metric, naming the run that measured it. */
    void addLayer(Metric m, const std::string& source);
    bool hasLayer(const std::string& name) const;

    /** Digest of the fixed golden inputs checked in set-up. */
    std::string goldenDigest;
    /** Record one set-up repetition's golden digest; repetitions must
     *  agree (they run identical inputs). */
    void noteGolden(const std::string& hex);
    /** Digest of the modeled outputs of this seed's counted prefix. */
    std::string seedDigest;
};

/** Set-up and timed-phase bookkeeping common to every workload. */
struct Phase
{
    std::vector<double> setupSeconds;
    double wallS = 0;
    double cpuS = 0;
};

/**
 * Fill the end-to-end metrics every workload shares. Throughput is the
 * median of per-batch rates (work per host second of one batch: a
 * corpus sweep, a service call, a heap round), which a short burst of
 * host noise moves less than a whole-run average.
 */
void addCommonEndToEnd(Result& r, const Phase& ph,
                       const std::vector<double>& batchRates,
                       const char* rateName, const char* batchName,
                       const std::vector<double>& latencyMs,
                       const char* latencyName);

/** Where a per-layer metric came from: the workload, with "-small"
 *  for a reduced-size run. */
std::string sourceName(const Options& o);

/** The golden digest recorded for `workload` in the golden file, or
 *  an empty string when none is recorded. */
std::string goldenFor(const std::string& path,
                      const std::string& workload);

/** Tracing overhead in percent: how much higher the median untraced
 *  batch rate is than the median traced one (0 when either is empty).
 *  Traced and untraced batches alternate, so both see the same host. */
double overheadPct(const std::vector<double>& untracedRates,
                   const std::vector<double>& tracedRates);

} // namespace wallbench

#endif // WALLBENCH_COMMON_HPP
