/**
 * @file
 * Per-layer drivers: each builds one component with its public
 * constructor (over a stub MemDevice where it needs a lower level) and
 * replays an address stream taken from the workload's own generators,
 * so a layer's host cost is measured apart from the rest of the
 * simulator. Every driver repeats its loop and reports the median.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "cache/cache.hh"
#include "cache/slice_router.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "prefetch/factory.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "vm/page_table.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"
#include "workloads/benchmarks.hh"

namespace perfbench {

using namespace tacsim;

namespace {

constexpr int kReps = 3;
/** Workload records captured per workload, split across its specs. */
constexpr std::size_t kStreamRecords = 240000;
constexpr std::uint64_t kEqEvents = 400000;
constexpr std::uint64_t kCoreInstr = 150000;
constexpr std::size_t kWorkloadRecords = 400000;

/** One access of the replayed stream, as the hierarchy would see it. */
struct Access
{
    Addr paddr = 0, vaddr = 0, ip = 0;
    ReqType type = ReqType::Load;
    std::uint8_t ptLevel = 0;
    bool leafPte = false;
    bool replay = false;
    PageSize ps = PageSize::Size4K;

    bool demand() const { return type != ReqType::Translation; }

    AccessInfo
    info() const
    {
        AccessInfo ai;
        ai.blockAddr = blockAlign(paddr);
        ai.vaddr = vaddr;
        ai.ip = ip;
        ai.ptLevel = ptLevel;
        ai.leafPte = leafPte;
        ai.pageSize = ps;
        ai.isReplay = replay;
        ai.cat = !demand() ? (leafPte ? BlockCat::PtLeaf : BlockCat::PtUpper)
            : replay       ? BlockCat::Replay
                           : BlockCat::NonReplay;
        return ai;
    }

    MemRequestPtr
    request(std::uint16_t cpu = 0) const
    {
        auto r = std::make_shared<MemRequest>();
        r->paddr = paddr;
        r->vaddr = demand() ? vaddr : 0;
        r->ip = ip;
        r->type = type;
        r->ptLevel = ptLevel;
        r->leafPte = leafPte;
        r->isReplay = replay;
        r->pageSize = ps;
        r->cpu = cpu;
        return r;
    }
};

struct Stream
{
    std::vector<Access> accesses;
    std::vector<Addr> walkVaddrs; ///< first STLB miss of each page
};

HugePagePolicy
guestPolicy(const SystemConfig &cfg)
{
    return HugePagePolicy{cfg.vm.hugePages2M, cfg.vm.hugePages1G, cfg.seed};
}

/**
 * Translate the memory records of every distinct spec of @p wl through
 * an STLB of the workload's geometry: an STLB miss contributes its
 * page-table reads (root to leaf) before the replay access, as the walker
 * would issue them.
 */
Stream
captureStream(const WorkloadDef &wl)
{
    const SystemConfig &cfg = wl.points.front().cfg;
    std::vector<std::string> specs;
    for (const Point &p : wl.points)
        for (const std::string &s : p.specs)
            if (std::find(specs.begin(), specs.end(), s) == specs.end())
                specs.push_back(s);

    Stream out;
    FrameAllocator frames;
    const std::size_t perSpec = kStreamRecords / specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto w = makeWorkloadFromSpec(specs[i], cfg.seed + i);
        PageTable pt(frames, guestPolicy(cfg));
        Tlb stlb("STLB", cfg.stlbEntries, cfg.stlbWays, cfg.stlbLatency);
        for (std::size_t n = 0; n < perSpec; ++n) {
            const TraceRecord r = w->next();
            if (!r.isMem())
                continue;
            Access a;
            a.vaddr = r.vaddr;
            a.ip = r.ip;
            a.type = r.isStore() ? ReqType::Store : ReqType::Load;
            Addr base = 0;
            PageSize ps = PageSize::Size4K;
            if (!stlb.lookup(0, r.vaddr, base, ps)) {
                const PageTable::WalkResult wr = pt.walk(r.vaddr);
                for (unsigned lvl = kPtLevels; lvl >= wr.leafLevel; --lvl) {
                    Access t;
                    t.paddr = wr.pteAddr[lvl - 1];
                    t.ip = r.ip;
                    t.type = ReqType::Translation;
                    t.ptLevel = static_cast<std::uint8_t>(lvl);
                    t.leafPte = lvl == wr.leafLevel;
                    out.accesses.push_back(t);
                }
                ps = wr.pageSize;
                base = pageAlign(wr.dataPaddr, ps);
                stlb.fill(0, r.vaddr, base, ps);
                out.walkVaddrs.push_back(r.vaddr);
                a.replay = true;
            }
            a.paddr = base | pageOffset(r.vaddr, ps);
            a.ps = ps;
            out.accesses.push_back(a);
        }
    }
    return out;
}

/** Lower level that answers every request after a fixed latency. */
class StubDevice : public MemDevice
{
  public:
    StubDevice(EventQueue &eq, Cycle latency, RespSource source)
        : eq_(eq), latency_(latency), source_(source)
    {}

    void
    access(const MemRequestPtr &req) override
    {
        eq_.schedule(latency_, [this, req] {
            req->complete(eq_.now(), source_);
        });
    }
    const std::string &name() const override { return name_; }

  private:
    EventQueue &eq_;
    Cycle latency_;
    RespSource source_;
    std::string name_ = "stub";
};

void
drain(EventQueue &eq)
{
    while (eq.step()) {
    }
}

/** Median over kReps of @p body's ns per op; @p body returns its op
 *  count and is timed whole (set-up belongs outside it). */
template <typename Setup>
double
medianNsPerOp(Setup &&setupAndRun)
{
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto [ns, ops] = setupAndRun();
        samples.push_back(ops ? ns / double(ops) : 0.0);
    }
    return median(samples);
}

double
elapsedNs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

using Timed = std::pair<double, std::uint64_t>;

Timed
driveCache(const CacheParams &params, PolicyKind policy, ReplOpts opts,
           PrefetcherKind pf, const Stream &s, std::uint64_t seed)
{
    EventQueue eq;
    StubDevice lower(eq, 40, RespSource::DRAM);
    Cache cache(params, eq, &lower,
                makePolicy(policy, params.sets, params.ways, opts, seed),
                makePrefetcher(pf));
    const auto t0 = Clock::now();
    for (const Access &a : s.accesses) {
        cache.access(a.request());
        eq.advanceTo(eq.now() + 2);
    }
    drain(eq);
    return {elapsedNs(t0), s.accesses.size()};
}

CacheParams
levelParams(const char *name, const CacheGeometry &g, RespSource level)
{
    CacheParams p;
    p.name = name;
    p.sets = g.sets();
    p.ways = g.ways;
    p.latency = g.latency;
    p.mshrs = g.mshrs;
    p.level = level;
    return p;
}

Timed
drivePolicy(PolicyKind kind, ReplOpts opts, std::uint32_t sets,
            std::uint32_t ways, const Stream &s, std::uint64_t seed)
{
    auto pol = makePolicy(kind, sets, ways, opts, seed);
    std::vector<BlockMeta> blocks(std::size_t(sets) * ways);
    std::uint64_t victims = 0;
    const auto t0 = Clock::now();
    for (const Access &a : s.accesses) {
        const AccessInfo ai = a.info();
        const std::uint32_t set =
            static_cast<std::uint32_t>(ai.blockAddr >> kBlockBits) &
            (sets - 1);
        BlockMeta *b = &blocks[std::size_t(set) * ways];
        std::uint32_t way = ways;
        std::uint32_t freeWay = ways;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (b[w].valid && b[w].tag == ai.blockAddr) {
                way = w;
                break;
            }
            if (!b[w].valid && freeWay == ways)
                freeWay = w;
        }
        if (way != ways) {
            b[way].reused = true;
            pol->onHit(set, way, ai);
            continue;
        }
        way = freeWay;
        if (way == ways) {
            way = pol->victim(set, ai, b);
            ++victims;
            pol->onEvict(set, way, b[way]);
        }
        b[way] = BlockMeta{};
        b[way].tag = ai.blockAddr;
        b[way].valid = true;
        b[way].dirty = a.type == ReqType::Store;
        b[way].cat = ai.cat;
        b[way].fillIp = ai.ip;
        pol->onFill(set, way, ai);
    }
    return {elapsedNs(t0), victims};
}

/** Counts the prefetches a prefetcher asks for. */
class RecordingIssuer : public PrefetchIssuer
{
  public:
    void
    issuePrefetch(Addr, PrefetchOrigin, Addr) override
    {
        ++issued;
    }
    std::uint64_t issued = 0;
};

Timed
drivePrefetcher(PrefetcherKind kind, const Stream &s)
{
    auto pf = makePrefetcher(kind);
    RecordingIssuer issuer;
    pf->setIssuer(&issuer);
    // Hit/miss outcome from a direct-mapped L1D-sized tag filter.
    std::vector<Addr> tags(768, ~Addr{0});
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    for (const Access &a : s.accesses) {
        if (!a.demand())
            continue;
        const AccessInfo ai = a.info();
        Addr &tag = tags[(ai.blockAddr >> kBlockBits) % tags.size()];
        const bool hit = tag == ai.blockAddr;
        tag = ai.blockAddr;
        pf->onAccess(ai, hit);
        ++calls;
    }
    return {elapsedNs(t0), calls};
}

Timed
driveTlb(const SystemConfig &cfg, const Stream &s)
{
    Tlb stlb("STLB", cfg.stlbEntries, cfg.stlbWays, cfg.stlbLatency);
    std::uint64_t lookups = 0;
    const auto t0 = Clock::now();
    for (const Access &a : s.accesses) {
        if (!a.demand())
            continue;
        Addr base = 0;
        PageSize ps = PageSize::Size4K;
        if (!stlb.lookup(0, a.vaddr, base, ps))
            stlb.fill(0, a.vaddr, pageAlign(a.paddr, a.ps), a.ps);
        ++lookups;
    }
    return {elapsedNs(t0), lookups};
}

Timed
driveWalker(const SystemConfig &cfg, const Stream &s)
{
    EventQueue eq;
    StubDevice port(eq, 20, RespSource::L2C);
    FrameAllocator frames;
    PageTable pt(frames, guestPolicy(cfg));
    Tlb stlb("STLB", cfg.stlbEntries, cfg.stlbWays, cfg.stlbLatency);
    PageTableWalker ptw(eq, &port, cfg.ptw);
    ptw.addAddressSpace(0, &pt);
    ptw.setStlb(&stlb);
    std::uint64_t done = 0;
    const auto t0 = Clock::now();
    for (Addr va : s.walkVaddrs) {
        ptw.walk(0, va, 0, 0, [&done](Addr, PageSize, RespSource) {
            ++done;
        });
        drain(eq);
    }
    return {elapsedNs(t0), done};
}

/** DRAM of the System @p p runs (its channels, its TEMPO setting). */
Timed
driveDram(const Point &p, const Stream &s)
{
    const auto sys = buildSystem(p);
    EventQueue &eq = sys->eventQueue();
    Dram &dram = sys->dram();
    const auto t0 = Clock::now();
    for (const Access &a : s.accesses) {
        dram.access(a.request());
        eq.advanceTo(eq.now() + 4);
    }
    drain(eq);
    return {elapsedNs(t0), s.accesses.size()};
}

/** A self-sustaining event chain with pre-drawn delays. */
struct EqChain
{
    EventQueue eq;
    std::vector<Cycle> delays;
    std::size_t next = 0;
};

struct Fire
{
    EqChain *chain;
    void
    operator()() const
    {
        EqChain &c = *chain;
        if (c.next < c.delays.size())
            c.eq.schedule(c.delays[c.next++], Fire{chain});
    }
};

Timed
driveEventQueue(std::uint64_t seed)
{
    EqChain c;
    Rng rng(seed);
    c.delays.reserve(kEqEvents);
    // 7 in 8 delays fall inside the 1024-cycle calendar window, the
    // rest overflow into the heap (DRAM-scale latencies).
    for (std::uint64_t i = 0; i < kEqEvents; ++i)
        c.delays.push_back(rng.next() % 8 ? 1 + rng.next() % 256
                                          : 1025 + rng.next() % 3072);
    const auto t0 = Clock::now();
    for (int k = 0; k < 64; ++k)
        c.eq.schedule(c.delays[c.next++], Fire{&c});
    while (!c.eq.empty())
        c.eq.advanceTo(c.eq.now() + 16);
    return {elapsedNs(t0), c.eq.executed()};
}

Timed
driveCore(const WorkloadDef &wl)
{
    const Point &p = wl.points.front();
    const SystemConfig &cfg = p.cfg;
    EventQueue eq;
    StubDevice l1d(eq, cfg.l1d.latency, RespSource::L1D);
    FrameAllocator frames;
    PageTable pt(frames, guestPolicy(cfg));
    Tlb dtlb("DTLB", cfg.dtlbEntries, cfg.dtlbWays, cfg.dtlbLatency);
    Tlb stlb("STLB", cfg.stlbEntries, cfg.stlbWays, cfg.stlbLatency);
    PageTableWalker ptw(eq, &l1d, cfg.ptw);
    ptw.addAddressSpace(0, &pt);
    ptw.setStlb(&stlb);
    auto w = makeWorkloadFromSpec(p.specs.front(), cfg.seed);
    Core core(cfg.core, eq, *w, dtlb, stlb, ptw, l1d);

    Cycle cycle = 0;
    const auto t0 = Clock::now();
    while (core.retired() < kCoreInstr) {
        eq.advanceTo(cycle);
        core.tick();
        if (core.blocked() && !eq.empty() && eq.nextEventCycle() > cycle + 1) {
            const Cycle skip = eq.nextEventCycle() - (cycle + 1);
            core.chargeSkippedCycles(skip);
            cycle = eq.nextEventCycle();
            continue;
        }
        ++cycle;
    }
    return {elapsedNs(t0), core.retired()};
}

/** SliceRouter::access into the LLC slices of @p mix's System, rebuilt
 *  over a stub DRAM: each slice keeps the geometry, MSHR split and
 *  arbitration System gave it, and DRAM costs stay out of the figure. */
Timed
driveSliceRouter(const Point &mix, const Stream &s)
{
    const auto sys = buildSystem(mix);
    const SystemConfig &cfg = mix.cfg;
    EventQueue eq;
    StubDevice dram(eq, 100, RespSource::DRAM);
    std::vector<std::unique_ptr<Cache>> owned;
    std::vector<Cache *> homes;
    for (std::size_t i = 0; i < sys->llcSlices(); ++i) {
        const CacheParams &p = sys->llc(i).params();
        owned.push_back(std::make_unique<Cache>(
            p, eq, &dram,
            makePolicy(cfg.llcPolicy, p.sets, p.ways, cfg.llcOpts,
                       cfg.seed + i)));
        homes.push_back(owned.back().get());
    }
    SliceRouter router("LLCRouter", eq, homes, cfg.threadsPerCore,
                       cfg.llcSliceHopLatency);
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    for (const Access &a : s.accesses) {
        router.access(
            a.request(static_cast<std::uint16_t>(n++ % sys->threads())));
        eq.advanceTo(eq.now() + 1);
    }
    drain(eq);
    return {elapsedNs(t0), n};
}

Timed
driveWorkload(const Point &p)
{
    auto w = makeWorkloadFromSpec(p.specs.front(), p.cfg.seed);
    Addr sink = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kWorkloadRecords; ++i)
        sink ^= w->next().vaddr;
    const double ns = elapsedNs(t0);
    if (sink == 1) // keeps the loop's results observable
        std::fputc(' ', stderr);
    return {ns, kWorkloadRecords};
}

Timed
driveTraceReader(const Point &p, const std::string &path)
{
    {
        auto w = makeWorkloadFromSpec(p.specs.front(), p.cfg.seed);
        trace::TraceHeader h;
        h.name = w->name();
        h.footprint = w->footprint();
        h.seed = p.cfg.seed;
        trace::TraceWriter writer(path, h);
        for (std::size_t i = 0; i < kWorkloadRecords; ++i)
            writer.append(w->next());
        writer.finalize();
    }
    trace::TraceReader reader(path);
    TraceRecord r;
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    while (reader.next(r))
        ++n;
    const double ns = elapsedNs(t0);
    std::filesystem::remove(path);
    return {ns, n};
}

} // namespace

std::map<std::string, double>
runLayerDrivers(const WorkloadDef &wl, std::uint64_t seed,
                const std::string &workDir)
{
    const Stream s = captureStream(wl);
    const Point &p = wl.points.front();
    const SystemConfig &cfg = p.cfg;
    std::map<std::string, double> m;

    m["common.eq.ns_per_event"] =
        medianNsPerOp([&] { return driveEventQueue(seed); });
    m["core.ns_per_instr"] = medianNsPerOp([&] { return driveCore(wl); });

    const CacheParams l1 = levelParams("L1D", cfg.l1d, RespSource::L1D);
    const CacheParams l2 = levelParams("L2C", cfg.l2, RespSource::L2C);
    CacheGeometry llcGeo = cfg.llcPerCore;
    llcGeo.sizeBytes = static_cast<std::uint32_t>(
        cfg.llcTotalBytes ? cfg.llcTotalBytes
                          : std::uint64_t(llcGeo.sizeBytes) * cfg.numCores);
    llcGeo.mshrs *= cfg.numCores;
    const CacheParams llc = levelParams("LLC", llcGeo, RespSource::LLC);
    // Policies see one core's LLC share: a replayed stream this short
    // would never fill the sets of a whole 8-core LLC.
    const CacheParams llcShare =
        levelParams("LLC", cfg.llcPerCore, RespSource::LLC);
    m["cache.l1d.ns_per_access"] = medianNsPerOp([&] {
        return driveCache(l1, PolicyKind::LRU, {}, cfg.l1Prefetcher, s,
                          cfg.seed);
    });
    m["cache.l2c.ns_per_access"] = medianNsPerOp([&] {
        return driveCache(l2, cfg.l2Policy, cfg.l2Opts, cfg.l2Prefetcher, s,
                          cfg.seed);
    });
    m["cache.llc.ns_per_access"] = medianNsPerOp([&] {
        return driveCache(llc, cfg.llcPolicy, cfg.llcOpts,
                          PrefetcherKind::None, s, cfg.seed);
    });

    ReplOpts tDrrip;
    tDrrip.translationRrpv0 = true;
    tDrrip.replayEvictFast = true;
    ReplOpts tShip;
    tShip.newSignatures = true;
    tShip.translationRrpv0 = true;
    const struct
    {
        const char *metric;
        PolicyKind kind;
        ReplOpts opts;
        const CacheParams *geo;
    } policies[] = {
        {"repl.drrip.ns_per_victim", PolicyKind::DRRIP, {}, &l2},
        {"repl.t-drrip.ns_per_victim", PolicyKind::DRRIP, tDrrip, &l2},
        {"repl.ship.ns_per_victim", PolicyKind::SHiP, {}, &llcShare},
        {"repl.t-ship.ns_per_victim", PolicyKind::SHiP, tShip, &llcShare},
        {"repl.hawkeye.ns_per_victim", PolicyKind::Hawkeye, {}, &llcShare},
    };
    for (const auto &pol : policies)
        m[pol.metric] = medianNsPerOp([&] {
            return drivePolicy(pol.kind, pol.opts, pol.geo->sets,
                               pol.geo->ways, s, cfg.seed);
        });

    m["prefetch.ipcp.ns_per_access"] = medianNsPerOp(
        [&] { return drivePrefetcher(PrefetcherKind::Ipcp, s); });
    m["prefetch.spp.ns_per_access"] = medianNsPerOp(
        [&] { return drivePrefetcher(PrefetcherKind::Spp, s); });
    m["vm.stlb.ns_per_lookup"] = medianNsPerOp([&] { return driveTlb(cfg, s); });
    m["vm.ptw.ns_per_walk"] =
        medianNsPerOp([&] { return driveWalker(cfg, s); });
    m["mem.dram.ns_per_access"] =
        medianNsPerOp([&] { return driveDram(p, s); });
    // Always the mix_8c LLC, the only sliced one.
    const WorkloadDef mix = makeWorkloadDef("mix_8c", seed % kSeedVariants);
    m["cache.slice_router.ns_per_access"] = medianNsPerOp(
        [&] { return driveSliceRouter(mix.points.front(), s); });
    m["workloads.ns_per_record"] =
        medianNsPerOp([&] { return driveWorkload(p); });
    const std::string tracePath = workDir + "/stream.tctrace";
    m["trace.ns_per_record"] =
        medianNsPerOp([&] { return driveTraceReader(p, tracePath); });
    return m;
}

} // namespace perfbench
