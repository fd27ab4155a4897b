#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace wallbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
mixSeed(uint64_t base, uint64_t index)
{
    uint64_t z = base + 0x9E3779B97F4A7C15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
Digest::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::string_view s)
{
    add(static_cast<uint64_t>(s.size()));
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
relativeIqr(const std::vector<double>& v)
{
    const double m = median(v);
    if (m == 0)
        return 0;
    return (quantile(v, 0.75) - quantile(v, 0.25)) / m;
}

Tail
tailOf(const std::vector<double>& v)
{
    Tail t;
    t.samples = v.size();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double beyond =
            static_cast<double>(v.size()) * (100.0 - p) / 100.0;
        if (beyond >= 10.0) {
            t.percentile = p;
            t.beyond = static_cast<size_t>(beyond);
            t.value = quantile(v, p / 100.0);
            return t;
        }
    }
    t.value = v.empty() ? 0 : *std::max_element(v.begin(), v.end());
    return t;
}

int32_t
Tracer::begin(const char* name)
{
    if (!enabled_)
        return -1;
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, nowNs(), 0, parent});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int32_t id)
{
    if (id < 0)
        return;
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::add(const char* name, uint64_t startNs, uint64_t endNs)
{
    if (enabled_)
        spans_.push_back(
            Span{name, startNs, endNs, open_.empty() ? -1 : open_.back()});
}

std::vector<Tracer::SelfTime>
Tracer::selfTimes() const
{
    // Children of one parent never overlap (the benchmark is a single
    // driver thread; GC cycles run between goroutine slices), so a
    // parent's covered time is the sum of its children's durations.
    std::vector<uint64_t> covered(spans_.size(), 0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            covered[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, SelfTime> byName;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const uint64_t dur = s.endNs - s.startNs;
        const uint64_t self = dur > covered[i] ? dur - covered[i] : 0;
        SelfTime& st = byName[s.name];
        st.name = s.name;
        ++st.count;
        st.totalMs += static_cast<double>(dur) / 1e6;
        st.selfMs += static_cast<double>(self) / 1e6;
    }
    std::vector<SelfTime> out;
    for (auto& [name, st] : byName)
        out.push_back(st);
    return out;
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << "}\n";
    }
    return static_cast<bool>(os);
}

Tracer&
tracer()
{
    static Tracer t;
    return t;
}

void
Result::check(bool ok, const std::string& what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
Result::noteGolden(const std::string& hex)
{
    if (!goldenDigest.empty())
        check(hex == goldenDigest,
              "golden digest differs between set-up repetitions: " +
                  goldenDigest + " vs " + hex);
    goldenDigest = hex;
}

void
Result::addLayer(Metric m, const std::string& source)
{
    m.detail += " (from " + source + ")";
    layer.push_back(std::move(m));
}

bool
Result::hasLayer(const std::string& name) const
{
    for (const Metric& m : layer) {
        if (m.name == name)
            return true;
    }
    return false;
}

namespace {

std::string
spreadDetail(const std::vector<double>& v)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "median of %zu, iqr %.1f%%",
                  v.size(), 100.0 * relativeIqr(v));
    return buf;
}

} // namespace

void
addCommonEndToEnd(Result& r, const Phase& ph,
                  const std::vector<double>& batchRates,
                  const char* rateName, const char* batchName,
                  const std::vector<double>& latencyMs,
                  const char* latencyName)
{
    const Tail tail = tailOf(latencyMs);
    char tailDetail[96];
    std::snprintf(tailDetail, sizeof tailDetail,
                  "p%g of %zu samples, %zu beyond", tail.percentile,
                  tail.samples, tail.beyond);
    const double rate = median(batchRates);
    const std::string rateDetail =
        spreadDetail(batchRates) + " " + batchName;
    const double p50 = median(latencyMs);

    r.endToEnd.push_back({"setup_s", median(ph.setupSeconds), "s",
                          "wall", spreadDetail(ph.setupSeconds)});
    r.endToEnd.push_back({"cpu_s", ph.cpuS, "s", "wall",
                          "user+sys over the timed phase"});
    r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB", "wall", ""});
    r.endToEnd.push_back({"throughput_per_s", rate, "1/s", "wall",
                          std::string("= ") + rateName + ", " + rateDetail});
    r.endToEnd.push_back({"latency_ms_p50", p50, "ms", "wall",
                          std::string("= ") + latencyName + "_ms_p50, " +
                              spreadDetail(latencyMs)});
    r.endToEnd.push_back({"latency_ms_tail", tail.value, "ms", "wall",
                          std::string("= ") + latencyName + "_ms_tail, " +
                              tailDetail});

    r.named.push_back({rateName, rate, "1/s", "wall", rateDetail});
    r.named.push_back({std::string(latencyName) + "_ms_p50", p50, "ms",
                       "wall", spreadDetail(latencyMs)});
    r.named.push_back({std::string(latencyName) + "_ms_tail", tail.value,
                       "ms", "wall", tailDetail});
}

std::string
sourceName(const Options& o)
{
    return o.small ? o.workload + "-small" : o.workload;
}

std::string
goldenFor(const std::string& path, const std::string& workload)
{
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name, digest;
        if (ls >> name >> digest && name == workload)
            return digest;
    }
    return {};
}

double
overheadPct(const std::vector<double>& untracedRates,
            const std::vector<double>& tracedRates)
{
    const double traced = median(tracedRates);
    if (untracedRates.empty() || traced <= 0)
        return 0;
    return (median(untracedRates) / traced - 1.0) * 100.0;
}

} // namespace wallbench
