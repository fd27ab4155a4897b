/**
 * @file
 * Layer probes run in every traced run, whatever the workload:
 *
 *  - runtime.new_us.pN: rt::Runtime construct + empty main + destroy
 *    in the default configuration at procs N;
 *  - obs.setup_us.pN: the same with obs on minus obs off;
 *  - golf.cycle_us.bN: host pause of a forced cycle in a runtime with
 *    N goroutines blocked on reachable channels (the fixpoint goes to
 *    the mark pool from 32 blocked goroutines on).
 */
#include <memory>

#include "chan/channel.hpp"
#include "golf/collector.hpp"
#include "runtime/local.hpp"
#include "runtime/runtime.hpp"
#include "workloads.hpp"

using namespace golf;

namespace wallbench {

namespace {

using chan::Channel;

rt::Go
emptyMain()
{
    co_return;
}

/** Construct, run an empty main, destroy; host microseconds. */
double
newRunOnce(const rt::Config& cfg, Result& r)
{
    const uint64_t t0 = nowNs();
    std::unique_ptr<rt::Runtime> runtime;
    {
        SpanScope s("rt.Runtime.ctor");
        runtime = std::make_unique<rt::Runtime>(cfg);
    }
    rt::RunResult rr;
    {
        SpanScope s("rt.Runtime.runMain");
        rr = runtime->runMain(emptyMain);
    }
    {
        SpanScope s("rt.Runtime.dtor");
        runtime.reset();
    }
    r.check(rr.ok(), "probe: empty main failed");
    return static_cast<double>(nowNs() - t0) / 1e3;
}

/** Keeps the probe's channels reachable from main's stack. */
struct ChanSet final : gc::Object
{
    std::vector<Channel<int>*> chans;

    void
    trace(gc::Marker& m) override
    {
        for (Channel<int>* c : chans)
            m.mark(c);
    }
};

rt::Go
blockedWorker(Channel<int>* ch)
{
    co_await chan::recv(ch); // until main closes ch
    co_return;
}

struct CycleProbe
{
    rt::Runtime* rt = nullptr;
    int blocked = 0;
    int cycles = 0;
    std::vector<double> pauseUs;
    size_t reports = 0;
};

rt::Go
cycleMain(CycleProbe* p)
{
    rt::Runtime& rt = *p->rt;
    gc::Local<ChanSet> set(rt.make<ChanSet>());
    for (int i = 0; i < p->blocked; ++i) {
        Channel<int>* ch = chan::makeChan<int>(rt, 0);
        set->chans.push_back(ch);
        GOLF_GO(rt, blockedWorker, ch);
    }
    co_await rt::sleepFor(support::kMillisecond);
    for (int c = 0; c < p->cycles; ++c) {
        {
            SpanScope s("rt.gcNow");
            co_await rt::gcNow();
        }
        p->pauseUs.push_back(
            static_cast<double>(rt.collector().lastCycle().pauseWallNs) /
            1e3);
    }
    p->reports = rt.collector().reports().total();
    for (Channel<int>* ch : set->chans)
        chan::close(ch);
    co_return;
}

} // namespace

void
runProbes(const Options& o, Result& r)
{
    const int reps = o.small ? 20 : 200;
    for (int procs : {1, 4, 10}) {
        rt::Config on;
        on.procs = procs;
        on.gcWorkers = o.gcWorkers;
        rt::Config off = on;
        off.obs.enabled = false;
        std::vector<double> onUs, offUs;
        for (int i = 0; i < reps; ++i) {
            onUs.push_back(newRunOnce(on, r));
            offUs.push_back(newRunOnce(off, r));
        }
        const std::string p = ".p" + std::to_string(procs);
        const std::string detail =
            "median of " + std::to_string(reps) + " runtimes";
        r.addLayer({"runtime.new_us" + p, median(onUs), "us", "wall",
                    detail},
                   "probe");
        r.addLayer({"obs.setup_us" + p, median(onUs) - median(offUs), "us",
                    "wall", "obs on minus off, " + detail},
                   "probe");
    }

    for (int blocked : {16, 64}) {
        CycleProbe p;
        p.blocked = blocked;
        p.cycles = o.small ? 20 : 200;
        rt::Config cfg;
        cfg.gcWorkers = o.gcWorkers;
        rt::Runtime runtime(cfg);
        p.rt = &runtime;
        const rt::RunResult rr = runtime.runMain(cycleMain, &p);
        r.check(rr.ok() && p.reports == 0,
                "probe: forced cycles with " + std::to_string(blocked) +
                    " blocked goroutines reported " +
                    std::to_string(p.reports) + " deadlocks");
        r.addLayer({"golf.cycle_us.b" + std::to_string(blocked),
                    median(p.pauseUs), "us", "wall",
                    "median of " + std::to_string(p.cycles) + " cycles"},
                   "probe");
    }
}

} // namespace wallbench
