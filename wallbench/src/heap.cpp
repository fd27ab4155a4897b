/**
 * @file
 * heap: a benchmark-owned mutator program that carries the per-object
 * costs of the marker, the parallel pool, the lazy sweep and the
 * allocator, and bypasses runtime set-up.
 *
 * Set-up builds a large live graph (mean out-degree 4) under a
 * gc::GlobalRoot and settles the pacer with one forced cycle. The
 * timed phase runs rounds: each round spawns a few mutator goroutines
 * that churn mixed-size allocations (every small size class band and
 * the large-object path), rewire graph edges and replace nodes, and
 * now and then spawn a goroutine that pins a subgraph and blocks
 * forever on a channel nobody else holds, so GOLF detects and
 * reclaims it. Collections are pacer-driven. All inputs derive from
 * the seed; the program sees only the generated choices.
 */
#include <algorithm>
#include <array>

#include "chan/channel.hpp"
#include "golf/collector.hpp"
#include "runtime/local.hpp"
#include "runtime/runtime.hpp"
#include "sync/pool.hpp"
#include "workloads.hpp"

using namespace golf;

namespace wallbench {

namespace {

using chan::Channel;

/** Seed of the golden program checked in set-up. */
constexpr uint64_t kGoldenSeed = 20250303;

struct Node final : gc::Object
{
    static constexpr int kMaxDegree = 6;
    std::array<Node*, kMaxDegree> edges{};
    uint64_t payload = 0;

    void
    trace(gc::Marker& m) override
    {
        for (Node* e : edges)
            m.mark(e);
    }
};

/** 256 graph nodes; the table is a vector of chunks so no single
 *  object's trace covers the whole graph. */
struct Chunk final : gc::Object
{
    static constexpr size_t kNodes = 256;
    std::array<Node*, kNodes> nodes{};

    void
    trace(gc::Marker& m) override
    {
        for (Node* n : nodes)
            m.mark(n);
    }
};

struct Table final : gc::Object
{
    std::vector<Chunk*> chunks;
    size_t size = 0;

    Node*&
    at(size_t i)
    {
        return chunks[i / Chunk::kNodes]->nodes[i % Chunk::kNodes];
    }

    void
    trace(gc::Marker& m) override
    {
        for (Chunk* c : chunks)
            m.mark(c);
    }
};

/** A mutator's recent allocations: each survives for kSlots steps. */
struct Holder final : gc::Object
{
    static constexpr size_t kSlots = 64;
    std::array<gc::Object*, kSlots> recent{};

    void
    trace(gc::Marker& m) override
    {
        for (gc::Object* o : recent)
            m.mark(o);
    }
};

template <size_t N>
struct Blob final : gc::Object
{
    std::array<unsigned char, N> bytes{};
};

/** Records the host time at which each GC cycle starts, through the
 *  sync.Pool cleanup the collector runs in every cycle's STW window. */
struct CycleClock final : sync::PoolBase
{
    std::vector<uint64_t> startNs;
    void gcCleanup() override { startNs.push_back(nowNs()); }
};

struct Params
{
    size_t nodes;
    int mutators;
    int stepsPerRound;
    int yieldEvery;
    int leakEvery;
    /** Rounds whose modeled outputs are digested and counted. */
    int countedRounds;
};

constexpr Params kFull{300000, 4, 4000, 64, 1000, 4};
constexpr Params kSmall{6000, 4, 600, 32, 200, 2};

/** State shared between the program and the benchmark code that runs it. */
struct Ctx
{
    rt::Runtime* rt = nullptr;
    Params prm{};
    uint64_t seed = 0;
    bool buildOnly = false;
    /** Stop condition: a fixed number of rounds, or a host deadline
     *  (never before countedRounds). */
    long fixedRounds = 0;
    double budgetNs = 0;
    /** Trace every other round (--trace 1). */
    bool traceRounds = false;

    uint64_t buildEndNs = 0;
    uint64_t timedStartNs = 0;
    uint64_t timedEndNs = 0;
    uint64_t cyclesAtStart = 0;
    double cpuStart = 0;
    double cpuEnd = 0;
    uint64_t allocs = 0;
    uint64_t leakers = 0;
    std::vector<double> roundRates; ///< Allocations per host second.

    /// @{ Traced rounds.
    bool tracing = false; ///< The current round is traced.
    std::array<std::vector<double>, 2> rateByTrace; ///< Untraced, traced.
    std::array<uint64_t, 2> sampleTick{}; ///< Small, large.
    std::vector<double> smallNs, largeNs;
    /// @}

    /// @{ Counted prefix.
    size_t countedCycles = 0;
    gc::PoolStats countedPool;
    size_t countedReports = 0;
    uint64_t countedAllocs = 0;
    gc::MemStats countedMem;
    uint64_t countedPeak = 0;
    /// @}
};

/** rt.make for the timed phase: counts the allocation and, while
 *  tracing, times one small allocation in 64 and one large in 4. */
template <typename T>
T*
make(Ctx* ctx, bool large)
{
    ++ctx->allocs;
    const uint64_t tick = ++ctx->sampleTick[large ? 1 : 0];
    if (!ctx->tracing || (tick & (large ? 3 : 63)) != 0)
        return ctx->rt->make<T>();
    const uint64_t t0 = nowNs();
    T* obj = ctx->rt->make<T>();
    const uint64_t t1 = nowNs();
    tracer().add(large ? "rt.make.large" : "rt.make.small", t0, t1);
    (large ? ctx->largeNs : ctx->smallNs)
        .push_back(static_cast<double>(t1 - t0));
    return obj;
}

/** One mixed-size allocation; ~1 KB mean, 3% on the large path. */
gc::Object*
allocMixed(Ctx* ctx, support::Rng& rng)
{
    const uint64_t pick = rng.nextBelow(100);
    if (pick < 40)
        return make<Blob<16>>(ctx, false);
    if (pick < 60)
        return make<Blob<64>>(ctx, false);
    if (pick < 75)
        return make<Blob<200>>(ctx, false);
    if (pick < 85)
        return make<Blob<500>>(ctx, false);
    if (pick < 92)
        return make<Blob<1500>>(ctx, false);
    if (pick < 97)
        return make<Blob<3500>>(ctx, false);
    if (pick < 99)
        return make<Blob<8000>>(ctx, true);
    return make<Blob<40000>>(ctx, true);
}

Node*
newNode(Ctx* ctx, Table* table, support::Rng& rng)
{
    Node* n = make<Node>(ctx, false);
    const uint64_t degree = 2 + rng.nextBelow(5); // mean 4
    for (uint64_t e = 0; e < degree && table->size > 0; ++e)
        n->edges[e] = table->at(rng.nextBelow(table->size));
    n->payload = rng.next();
    return n;
}

/** Pins a private subgraph and one shared node, then blocks forever
 *  on a channel only it references: a partial deadlock. */
rt::Go
leaker(Ctx* ctx, Node* shared, uint64_t seed)
{
    support::Rng rng(seed);
    gc::Local<Node> head(make<Node>(ctx, false));
    Node* tail = head.get();
    for (int i = 0; i < 16; ++i) {
        Node* n = make<Node>(ctx, false);
        n->edges[0] = tail;
        n->edges[1] = shared;
        n->payload = rng.next();
        tail = n;
    }
    head->edges[0] = tail;
    gc::Local<Channel<int>> ch(chan::makeChan<int>(*ctx->rt, 0));
    co_await chan::recv(ch.get());
    co_return;
}

rt::Go
mutator(Ctx* ctx, Table* table, Holder* holder, Channel<int>* done,
        uint64_t seed)
{
    support::Rng rng(seed);
    const Params& prm = ctx->prm;
    for (int s = 1; s <= prm.stepsPerRound; ++s) {
        holder->recent[static_cast<size_t>(s) % Holder::kSlots] =
            allocMixed(ctx, rng);
        // Rewire one edge of the graph. Every fourth step a young node
        // pointing into the graph takes the place of the oldest
        // allocation. Edges only ever point at table nodes, which the
        // table keeps live, so the live set stays the same size.
        Node* a = table->at(rng.nextBelow(table->size));
        a->edges[rng.nextBelow(Node::kMaxDegree)] =
            table->at(rng.nextBelow(table->size));
        if (s % 4 == 0) {
            holder->recent[static_cast<size_t>(s + 1) % Holder::kSlots] =
                newNode(ctx, table, rng);
        }
        if (s % prm.leakEvery == 0) {
            ++ctx->leakers;
            Node* shared = table->at(rng.nextBelow(table->size));
            SpanScope sp("rt.GOLF_GO");
            GOLF_GO(*ctx->rt, leaker, ctx, shared, rng.next());
        }
        if (s % prm.yieldEvery == 0)
            co_await rt::yield();
    }
    co_await chan::send(done, 1);
    co_return;
}

void
snapshotCounted(Ctx* ctx)
{
    ctx->countedCycles = ctx->rt->collector().history().size();
    ctx->countedPool = ctx->rt->heap().poolStats();
    ctx->countedReports = ctx->rt->collector().reports().total();
    ctx->countedAllocs = ctx->allocs;
    ctx->countedMem = ctx->rt->heap().stats();
    ctx->countedPeak = ctx->rt->heap().peakLiveBytes();
}

rt::Go
heapMain(Ctx* ctx)
{
    rt::Runtime& rt = *ctx->rt;
    support::Rng rng(ctx->seed);
    gc::GlobalRoot<CycleClock> clock(rt.heap(), rt.make<CycleClock>());
    rt.registerPool(clock.get());

    // Build: all nodes first, then their edges.
    gc::GlobalRoot<Table> table(rt.heap(), rt.make<Table>());
    const size_t chunks =
        (ctx->prm.nodes + Chunk::kNodes - 1) / Chunk::kNodes;
    for (size_t c = 0; c < chunks; ++c)
        table->chunks.push_back(rt.make<Chunk>());
    table->size = ctx->prm.nodes;
    for (size_t i = 0; i < table->size; ++i)
        table->at(i) = rt.make<Node>();
    for (size_t i = 0; i < table->size; ++i) {
        Node* n = table->at(i);
        const uint64_t degree = 2 + rng.nextBelow(5);
        for (uint64_t e = 0; e < degree; ++e)
            n->edges[e] = table->at(rng.nextBelow(table->size));
        n->payload = rng.next();
    }
    co_await rt::gcNow();
    ctx->buildEndNs = nowNs();
    if (ctx->buildOnly) {
        rt.unregisterPool(clock.get());
        co_return;
    }

    ctx->timedStartNs = nowNs();
    ctx->cpuStart = cpuSeconds();
    ctx->cyclesAtStart = rt.collector().history().size();
    for (int r = 0;; ++r) {
        const uint64_t now = nowNs();
        const double elapsed =
            static_cast<double>(now - ctx->timedStartNs);
        const int counted = ctx->prm.countedRounds;
        if (ctx->fixedRounds
                ? r >= std::max<long>(ctx->fixedRounds, counted)
                : (r >= counted && elapsed >= ctx->budgetNs))
            break;
        ctx->tracing = ctx->traceRounds && r % 2 == 1;
        tracer().setEnabled(ctx->tracing);
        const int32_t roundSpan = tracer().begin("heap.round");
        const size_t cycles0 = rt.collector().history().size();
        const uint64_t allocs0 = ctx->allocs;
        gc::Local<Channel<int>> done(chan::makeChan<int>(
            rt, static_cast<size_t>(ctx->prm.mutators)));
        for (int m = 0; m < ctx->prm.mutators; ++m) {
            Holder* holder = rt.make<Holder>();
            const uint64_t seed = rng.next();
            SpanScope sp("rt.GOLF_GO");
            GOLF_GO(rt, mutator, ctx, table.get(), holder, done.get(),
                    seed);
        }
        for (int m = 0; m < ctx->prm.mutators; ++m)
            co_await chan::recv(done.get());
        // Cycles of a traced round become its children, each starting
        // at its pool-cleanup point and lasting its recorded pause.
        const auto& hist = rt.collector().history();
        for (size_t i = cycles0;
             ctx->tracing && i < hist.size() && i < clock->startNs.size();
             ++i)
            tracer().add("gc.cycle", clock->startNs[i],
                         clock->startNs[i] + hist[i].pauseWallNs);
        tracer().end(roundSpan);
        ctx->roundRates.push_back(
            static_cast<double>(ctx->allocs - allocs0) * 1e9 /
            static_cast<double>(nowNs() - now));
        ctx->rateByTrace[ctx->tracing ? 1 : 0].push_back(
            ctx->roundRates.back());
        if (r + 1 == counted)
            snapshotCounted(ctx);
    }
    ctx->timedEndNs = nowNs();
    ctx->cpuEnd = cpuSeconds();
    ctx->tracing = false;
    tracer().setEnabled(false);
    rt.unregisterPool(clock.get());
    co_return;
}

rt::Config
runtimeConfig(uint64_t seed, int gcWorkers)
{
    rt::Config c;
    c.seed = seed;
    c.gcWorkers = gcWorkers;
    return c;
}

/** Digest every deterministic field of the first `cycles` cycles. */
void
digestCycles(Digest& d, const std::vector<detect::CycleStats>& h,
             size_t cycles)
{
    for (size_t i = 0; i < cycles && i < h.size(); ++i) {
        const detect::CycleStats& c = h[i];
        for (uint64_t v :
             {c.cycle, uint64_t(c.detectionRan), c.markIterations,
              c.pointersTraversed, c.objectsMarked, c.bytesMarked,
              c.detectChecks, c.modeledMarkNs, c.modeledStwNs,
              uint64_t(c.freedObjects), uint64_t(c.deadlocksFound),
              uint64_t(c.reclaimed), uint64_t(c.quarantined),
              uint64_t(c.cancelled), uint64_t(c.watchdogTriggered)})
            d.add(v);
    }
}

/** Check a finished program and digest its counted prefix. */
std::string
checkAndDigest(rt::Runtime& runtime, const rt::RunResult& rr,
               const Ctx& ctx, Result& r, const char* what)
{
    std::vector<std::string> bad = runtime.verifyInvariants();
    const std::string pool = runtime.heap().verifyPool();
    if (!pool.empty())
        bad.push_back(pool);
    const auto& reports = runtime.collector().reports();
    r.check(rr.ok() && bad.empty() && runtime.resurrections() == 0 &&
                reports.total() <= ctx.leakers,
            std::string(what) + " seed=" + std::to_string(ctx.seed) +
                ": ok=" + std::to_string(rr.ok()) + " " + rr.panicMessage +
                (bad.empty() ? "" : " invariant: " + bad.front()) +
                " reports=" + std::to_string(reports.total()) +
                " leakers=" + std::to_string(ctx.leakers));

    Digest d;
    d.add(ctx.seed);
    d.add(ctx.countedAllocs);
    d.add(ctx.countedReports);
    digestCycles(d, runtime.collector().history(), ctx.countedCycles);
    const gc::PoolStats& p = ctx.countedPool;
    for (uint64_t v : {p.slotAllocs, p.slotsRecycled, p.largeAllocs,
                       p.lazySweptSpans, p.drainSweptSpans, p.evictedSpans})
        d.add(v);
    const gc::MemStats& m = ctx.countedMem;
    for (uint64_t v : {m.heapAlloc, m.heapInuse, m.heapObjects,
                       m.stackInuse, m.totalAlloc, m.totalFreed,
                       m.pauseTotalNs, m.numGC, ctx.countedPeak})
        d.add(v);
    return d.hex();
}

/** Sums over the counted cycles. */
struct Counts
{
    uint64_t deadlocks = 0, reclaimed = 0, markIterations = 0,
             detectChecks = 0, objectsMarked = 0, pointersTraversed = 0,
             freed = 0, parallelJobs = 0;
};

Counts
countCycles(const std::vector<detect::CycleStats>& h, size_t cycles)
{
    Counts c;
    for (size_t i = 0; i < cycles && i < h.size(); ++i) {
        c.deadlocks += h[i].deadlocksFound;
        c.reclaimed += h[i].reclaimed;
        c.markIterations += h[i].markIterations;
        c.detectChecks += h[i].detectChecks;
        c.objectsMarked += h[i].objectsMarked;
        c.pointersTraversed += h[i].pointersTraversed;
        c.freed += h[i].freedObjects;
        c.parallelJobs += h[i].parallelMarkJobs;
    }
    return c;
}

} // namespace

void
runHeap(const Options& o, Result& r)
{
    const std::string src = sourceName(o);
    const Params& prm = o.small ? kSmall : kFull;

    // Set-up: the golden program (small, fixed seed, counted rounds
    // only), then the graph build. All but the last build are torn
    // down; the last runtime carries on into the timed phase.
    Phase ph;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const uint64_t t0 = nowNs();
        {
            Ctx g;
            g.prm = kSmall;
            g.seed = kGoldenSeed;
            g.fixedRounds = kSmall.countedRounds;
            rt::Runtime runtime(runtimeConfig(g.seed, o.gcWorkers));
            g.rt = &runtime;
            const rt::RunResult rr = runtime.runMain(heapMain, &g);
            r.noteGolden(checkAndDigest(runtime, rr, g, r, "heap golden"));
        }
        const double goldenS = static_cast<double>(nowNs() - t0) / 1e9;
        if (rep + 1 == kSetupReps) {
            ph.setupSeconds.push_back(goldenS); // + the kept build below
            break;
        }
        Ctx b;
        b.prm = prm;
        b.seed = o.seed;
        b.buildOnly = true;
        const uint64_t t1 = nowNs();
        rt::Runtime runtime(runtimeConfig(o.seed, o.gcWorkers));
        b.rt = &runtime;
        runtime.runMain(heapMain, &b);
        ph.setupSeconds.push_back(
            goldenS + static_cast<double>(b.buildEndNs - t1) / 1e9);
    }

    Ctx ctx;
    ctx.prm = prm;
    ctx.seed = o.seed;
    ctx.fixedRounds = o.units;
    ctx.budgetNs = o.seconds * 1e9;
    ctx.traceRounds = o.trace;
    const uint64_t t1 = nowNs();
    rt::Runtime runtime(runtimeConfig(o.seed, o.gcWorkers));
    ctx.rt = &runtime;
    const rt::RunResult rr = runtime.runMain(heapMain, &ctx);
    ph.setupSeconds.back() +=
        static_cast<double>(ctx.buildEndNs - t1) / 1e9;
    ph.wallS = static_cast<double>(ctx.timedEndNs - ctx.timedStartNs) / 1e9;
    ph.cpuS = ctx.cpuEnd - ctx.cpuStart;
    r.seedDigest = checkAndDigest(runtime, rr, ctx, r, "heap");

    // Timed-phase cycles: pauses and mark time.
    const auto& hist = runtime.collector().history();
    std::vector<double> pauseMs, markMs, otherMs;
    double pauseSumS = 0, markWallS = 0, markCpuS = 0, marked = 0;
    for (size_t i = ctx.cyclesAtStart; i < hist.size(); ++i) {
        const detect::CycleStats& c = hist[i];
        pauseMs.push_back(static_cast<double>(c.pauseWallNs) / 1e6);
        markMs.push_back(static_cast<double>(c.markWallNs) / 1e6);
        otherMs.push_back(
            static_cast<double>(c.pauseWallNs - c.markWallNs) / 1e6);
        pauseSumS += static_cast<double>(c.pauseWallNs) / 1e9;
        markWallS += static_cast<double>(c.markWallNs) / 1e9;
        markCpuS += static_cast<double>(c.markCpuNs) / 1e9;
        marked += static_cast<double>(c.objectsMarked);
    }

    if (!o.trace) {
        addCommonEndToEnd(r, ph, ctx.roundRates, "allocs_per_s", "rounds",
                          pauseMs, "gc_pause");
    } else {
        r.addLayer({"trace.overhead_pct",
                    overheadPct(ctx.rateByTrace[0], ctx.rateByTrace[1]),
                    "%", "wall", "allocs/s, untraced vs traced rounds"},
                   src);
    }

    auto wall = [&](const char* name, double v, const char* unit,
                    std::string detail) {
        r.addLayer({name, v, unit, "wall", std::move(detail)}, src);
    };
    const std::string cyclesN =
        "median of " + std::to_string(markMs.size()) + " cycles";
    wall("gc.mark_ms_p50", median(markMs), "ms", cyclesN);
    wall("gc.mark_objs_per_s", markWallS > 0 ? marked / markWallS : 0,
         "1/s", "summed over timed cycles");
    wall("gc.mark_cpu_per_wall", markWallS > 0 ? markCpuS / markWallS : 0,
         "ratio", "summed over timed cycles");
    wall("golf.stw_other_ms_p50", median(otherMs), "ms",
         "pause minus mark, " + cyclesN);
    wall("gc.alloc_ns.small", median(ctx.smallNs), "ns",
         "median of " + std::to_string(ctx.smallNs.size()) + " sampled");
    wall("gc.alloc_ns.large", median(ctx.largeNs), "ns",
         "median of " + std::to_string(ctx.largeNs.size()) + " sampled");
    wall("gc.mutator_s", ph.wallS - pauseSumS, "s",
         "timed wall minus summed pauses");

    const Counts c = countCycles(hist, ctx.countedCycles);
    const gc::PoolStats& p = ctx.countedPool;
    auto count = [&](const char* name, uint64_t v, const char* plane) {
        r.addLayer({name, static_cast<double>(v), "count", plane,
                    "counted rounds"},
                   src);
    };
    count("golf.cycles", ctx.countedCycles, "modeled");
    count("golf.deadlocks", c.deadlocks, "modeled");
    count("golf.reclaimed", c.reclaimed, "modeled");
    count("golf.mark_iterations", c.markIterations, "modeled");
    count("golf.detect_checks", c.detectChecks, "modeled");
    count("golf.reports", ctx.countedReports, "modeled");
    count("gc.objects_marked", c.objectsMarked, "modeled");
    count("gc.pointers_traversed", c.pointersTraversed, "modeled");
    count("gc.freed_objects", c.freed, "modeled");
    count("gc.parallel_jobs", c.parallelJobs, "wall");
    count("gc.slot_allocs", p.slotAllocs, "modeled");
    count("gc.slots_recycled", p.slotsRecycled, "modeled");
    count("gc.lazy_swept_spans", p.lazySweptSpans, "modeled");
    count("gc.large_allocs", p.largeAllocs, "modeled");
    count("gc.evicted_spans", p.evictedSpans, "modeled");

    auto modeled = [&](const char* name, double v, const char* unit) {
        r.modeled.push_back({name, v, unit, "modeled", "counted rounds"});
    };
    modeled("modeled.heap.allocs", static_cast<double>(ctx.countedAllocs),
            "count");
    modeled("modeled.heap.heap_alloc",
            static_cast<double>(ctx.countedMem.heapAlloc), "bytes");
    modeled("modeled.heap.heap_peak", static_cast<double>(ctx.countedPeak),
            "bytes");
    modeled("modeled.heap.pause_total_ns",
            static_cast<double>(ctx.countedMem.pauseTotalNs), "ns");
    modeled("modeled.heap.num_gc",
            static_cast<double>(ctx.countedMem.numGC), "count");
}

} // namespace wallbench
