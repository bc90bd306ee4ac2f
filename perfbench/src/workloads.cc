/**
 * @file
 * The benchmark's named workloads and the code that runs their points:
 * serially through the public System API, or through SweepRunner with
 * a tacsim-cache-v1 result store attached.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "bench.hh"
#include "serve/point_key.hh"
#include "serve/result_cache.hh"
#include "serve/sha256.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sim/topology.hh"

namespace perfbench {

using namespace tacsim;

namespace {

// Budgets are per thread. They keep one pass of every workload near or
// below a second on a 4-CPU host, so a 10 s run times many passes.
constexpr std::uint64_t kTranslationInstr = 60000, kTranslationWarm = 20000;
constexpr std::uint64_t kPrefetchInstr = 100000, kPrefetchWarm = 25000;
constexpr std::uint64_t kMixInstr = 10000, kMixWarm = 3000;
constexpr std::uint64_t kSweepInstr = 40000, kSweepWarm = 10000;

SystemConfig
proposedOf(SystemConfig cfg)
{
    TranslationAwareOptions ta;
    ta.tempo = true; // T-DRRIP + T-SHiP + ATP + TEMPO
    applyTranslationAware(cfg, ta);
    return cfg;
}

Point
makePoint(std::string name, SystemConfig cfg,
          std::vector<std::string> specs, std::uint64_t instr,
          std::uint64_t warm)
{
    Point p;
    p.name = std::move(name);
    p.cfg = std::move(cfg);
    p.specs = std::move(specs);
    p.instructions = instr;
    p.warmup = warm;
    return p;
}

/** baseline + proposed points of @p bench on @p base. */
void
addPair(WorkloadDef &wl, const SystemConfig &base, const std::string &bench,
        std::uint64_t instr, std::uint64_t warm)
{
    const std::vector<std::string> specs(base.threads(), bench);
    wl.points.push_back(
        makePoint(bench + "/baseline", base, specs, instr, warm));
    wl.points.push_back(makePoint(bench + "/proposed", proposedOf(base),
                                  specs, instr, warm));
}

std::string
digestOf(const RunResult &r)
{
    return serve::sha256Hex(dumpRunResult(r));
}

/** Counts Workload::next calls of the wrapped generator (traced runs). */
class CountingWorkload : public Workload
{
  public:
    explicit CountingWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {}

    TraceRecord
    next() override
    {
        ++calls_;
        return inner_->next();
    }
    std::string name() const override { return inner_->name(); }
    Addr footprint() const override { return inner_->footprint(); }

    std::uint64_t calls() const { return calls_; }

  private:
    std::unique_ptr<Workload> inner_;
    std::uint64_t calls_ = 0;
};

std::uint64_t
sumCats(const std::uint64_t (&a)[kNumBlockCats])
{
    std::uint64_t s = 0;
    for (std::uint64_t v : a)
        s += v;
    return s;
}

LayerCounts
countsOf(System &sys, const Point &p, const RunResult &r)
{
    LayerCounts c;
    c.measuredInstr = sys.measuredInstructions();
    c.simulatedInstr = p.simulatedInstructions();
    c.events = r.events;
    for (std::size_t k = 0; k < sys.config().numCores; ++k) {
        const CacheStats &l1 = sys.l1d(k).stats();
        const CacheStats &l2 = sys.l2(k).stats();
        c.l1dAccesses += sumCats(l1.accesses);
        c.l2cAccesses += sumCats(l2.accesses);
        c.pfIssued += l1.prefetchIssued + l2.prefetchIssued;
        c.pfUseful += l1.prefetchUseful + l2.prefetchUseful;
        c.walks += sys.ptw(k).stats().walks;
        c.pscLookups += sys.ptw(k).pscStats().lookups;
        c.pscFullMisses += sys.ptw(k).pscStats().fullMisses;
        c.pscl2Hits += sys.ptw(k).pscStats().hitsAtLevel[1];
    }
    const CacheStats llc = sys.llcStats();
    c.llcAccesses = sumCats(llc.accesses);
    c.llcMisses = sumCats(llc.misses);
    c.llcMshrMerges = llc.mshrMerges;
    const DramStats &d = sys.dram().stats();
    c.dramRowHits = d.rowHits;
    c.dramAccesses = d.rowHits + d.rowMisses + d.rowConflicts;
    return c;
}

/** Times every SweepCache call the sweep pool makes (traced runs). */
class TimedSweepCache : public SweepCache
{
  public:
    TimedSweepCache(SweepCache &inner, SpanRecorder &spans)
        : inner_(inner), spans_(spans)
    {}

    bool
    lookup(const std::string &pointKey, RunResult &out) override
    {
        const std::int64_t t0 = spans_.enabled() ? spans_.nowNs() : 0;
        const bool hit = inner_.lookup(pointKey, out);
        spans_.close(hit ? "ResultCache::lookup.hit"
                         : "ResultCache::lookup.miss",
                     t0, -1);
        return hit;
    }

    void
    store(const std::string &pointKey, const RunResult &result,
          const std::string &statsDump) override
    {
        const std::int64_t t0 = spans_.enabled() ? spans_.nowNs() : 0;
        inner_.store(pointKey, result, statsDump);
        spans_.close("ResultCache::store", t0, -1);
    }

  private:
    SweepCache &inner_;
    SpanRecorder &spans_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "translation_1c", "prefetch_thp_1c", "mix_8c", "sweep_cache"};
    return names;
}

WorkloadDef
makeWorkloadDef(const std::string &name, std::uint64_t variant,
                bool perturb)
{
    WorkloadDef wl;
    wl.name = name;
    SystemConfig base{};
    base.seed = variant + 1;

    if (name == "translation_1c") {
        // Translation-bound: 4K pages, no data prefetchers; the STLB
        // misses every few dozen instructions on these four.
        for (const char *b : {"pr", "cc", "radii", "bf"})
            addPair(wl, base, b, kTranslationInstr, kTranslationWarm);
    } else if (name == "prefetch_thp_1c") {
        // Translation bypassed (all 2M pages, no walks); IPCP at L1D
        // and SPP at L2C do the work.
        base.vm.hugePages2M = 1.0;
        base.l1Prefetcher = PrefetcherKind::Ipcp;
        base.l2Prefetcher = PrefetcherKind::Spp;
        for (const char *b : {"pr", "xalancbmk", "mcf", "canneal"})
            wl.points.push_back(makePoint(std::string(b) + "/baseline",
                                          base, {b}, kPrefetchInstr,
                                          kPrefetchWarm));
    } else if (name == "mix_8c") {
        // The only workload with LLC slices, per-core MSHR quotas,
        // bandwidth tokens and two DRAM channels. A mix runs until its
        // slowest thread is done, so its work swings with the seed;
        // four rotations of the thread assignment (four content draws)
        // average that out.
        base = configFromTopology(
            "cores=8,slices=8,slice_lat=2,mshr_quota=16,bw=8", base);
        std::vector<std::string> mix;
        for (Benchmark b : kAllBenchmarks)
            if (b != Benchmark::pr)
                mix.push_back(benchmarkName(b));
        for (int r = 0; r < 4; ++r) {
            const std::string tag = "mix8.r" + std::to_string(r);
            wl.points.push_back(
                makePoint(tag + "/baseline", base, mix, kMixInstr, kMixWarm));
            wl.points.push_back(makePoint(tag + "/proposed",
                                          proposedOf(base), mix, kMixInstr,
                                          kMixWarm));
            std::rotate(mix.begin(), mix.begin() + 2, mix.end());
        }
    } else if (name == "sweep_cache") {
        // A figure-sized sweep (every benchmark, baseline vs proposed),
        // run through SweepRunner and the tacsim-cache-v1 store.
        wl.sweepCache = true;
        for (Benchmark b : kAllBenchmarks)
            addPair(wl, base, benchmarkName(b), kSweepInstr, kSweepWarm);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }

    if (perturb)
        for (Point &p : wl.points)
            p.cfg.stlbEntries /= 2;
    return wl;
}

void
LayerCounts::add(const LayerCounts &o)
{
    measuredInstr += o.measuredInstr;
    simulatedInstr += o.simulatedInstr;
    events += o.events;
    l1dAccesses += o.l1dAccesses;
    l2cAccesses += o.l2cAccesses;
    llcAccesses += o.llcAccesses;
    llcMisses += o.llcMisses;
    llcMshrMerges += o.llcMshrMerges;
    pfIssued += o.pfIssued;
    pfUseful += o.pfUseful;
    walks += o.walks;
    pscLookups += o.pscLookups;
    pscFullMisses += o.pscFullMisses;
    pscl2Hits += o.pscl2Hits;
    dramRowHits += o.dramRowHits;
    dramAccesses += o.dramAccesses;
    nextCalls += o.nextCalls;
}

PointRun
runPoint(const Point &p, SpanRecorder &spans, std::int32_t pointId,
         LayerCounts *counts)
{
    PointRun out;
    const bool traced = spans.enabled();
    const auto t0 = Clock::now();
    const std::int64_t pointStart = traced ? spans.nowNs() : 0;
    try {
        std::vector<std::unique_ptr<Workload>> wls;
        std::vector<CountingWorkload *> counters;
        std::string label;
        for (std::size_t t = 0; t < p.specs.size(); ++t) {
            const std::int64_t s = traced ? spans.nowNs() : 0;
            auto w = makeWorkloadFromSpec(p.specs[t], p.cfg.seed + t);
            spans.close("makeWorkloadFromSpec", s, pointId);
            label += (t ? "-" : "") + w->name();
            if (traced) {
                auto c = std::make_unique<CountingWorkload>(std::move(w));
                counters.push_back(c.get());
                w = std::move(c);
            }
            wls.push_back(std::move(w));
        }

        std::int64_t s = traced ? spans.nowNs() : 0;
        System sys(p.cfg, std::move(wls));
        spans.close("System::System", s, pointId);
        out.setupNs = std::chrono::duration<double, std::nano>(
                          Clock::now() - t0)
                          .count();

        s = traced ? spans.nowNs() : 0;
        sys.warmup(p.warmup);
        spans.close("System::warmup", s, pointId);

        s = traced ? spans.nowNs() : 0;
        sys.run(p.instructions);
        spans.close("System::run", s, pointId);

        s = traced ? spans.nowNs() : 0;
        out.result = collectResult(sys, label);
        spans.close("collectResult", s, pointId);

        if (counts) {
            *counts = countsOf(sys, p, out.result);
            for (const CountingWorkload *c : counters)
                counts->nextCalls += c->calls();
        }
        out.digest = digestOf(out.result);
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    spans.close("point", pointStart, pointId);
    out.wallNs =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    return out;
}

SweepPass
runSweepPass(const WorkloadDef &wl, const std::string &cacheDir,
             unsigned jobs, SpanRecorder &spans)
{
    SweepPass pass;
    const auto t0 = Clock::now();
    serve::ResultCache store(cacheDir);
    pass.cacheOpenNs =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    serve::ResultCacheSweepAdapter adapter(store);
    TimedSweepCache timed(adapter, spans);

    SweepRunner sweep(jobs);
    sweep.attachCache(spans.enabled() ? static_cast<SweepCache *>(&timed)
                                      : &adapter);
    for (std::size_t i = 0; i < wl.points.size(); ++i) {
        const Point &p = wl.points[i];
        if (spans.enabled()) {
            // The runner hashes the point itself; this span times the
            // same call from outside.
            const std::int64_t s = spans.nowNs();
            (void)serve::pointKey(p.cfg, p.specs, p.instructions,
                                  p.warmup);
            spans.close("serve::pointKey", s, static_cast<std::int32_t>(i));
        }
        std::vector<Benchmark> mix;
        for (const std::string &spec : p.specs) {
            const auto b = benchmarkFromName(spec);
            if (!b)
                throw std::invalid_argument("sweep point needs a "
                                            "benchmark spec: " + spec);
            mix.push_back(*b);
        }
        sweep.addMix(p.name, p.cfg, std::move(mix), p.instructions,
                     p.warmup);
    }
    const std::int64_t s = spans.enabled() ? spans.nowNs() : 0;
    sweep.run();
    spans.close("SweepRunner::run", s, -1);
    pass.wallNs =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();

    for (const Point &p : wl.points) {
        PointRun r;
        const SweepOutcome *o = sweep.outcome(p.name);
        if (!o) {
            r.error = "sweep point did not run";
        } else {
            r.ok = o->ok;
            r.cached = o->cached;
            r.error = o->error;
            r.wallNs = o->wallMs * 1e6;
            pass.busyNs += r.wallNs;
            if (o->ok) {
                r.result = o->result;
                r.digest = digestOf(o->result);
            }
        }
        pass.runs.push_back(std::move(r));
    }
    return pass;
}

std::unique_ptr<System>
buildSystem(const Point &p)
{
    std::vector<std::unique_ptr<Workload>> wls;
    for (std::size_t t = 0; t < p.specs.size(); ++t)
        wls.push_back(makeWorkloadFromSpec(p.specs[t], p.cfg.seed + t));
    return std::make_unique<System>(p.cfg, std::move(wls));
}

double
measureSetupNs(const WorkloadDef &wl)
{
    double total = 0;
    for (const Point &p : wl.points) {
        const auto t0 = Clock::now();
        const auto sys = buildSystem(p);
        total +=
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
    }
    return total;
}

// ------------------------------------------------------------ spans --

double
SpanRecorder::totalNs(const std::string &name) const
{
    double sum = 0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(double(s.endNs - s.startNs));
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"point\":%d}}\n",
                     i ? "," : "", s.name, double(s.startNs) / 1e3,
                     double(s.endNs - s.startNs) / 1e3, s.point);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

} // namespace perfbench
