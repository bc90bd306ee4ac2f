/**
 * @file
 * tacsim-bench: closed-loop benchmark of the tacsim simulator.
 *
 * One process, one client: the workload's simulation points run back
 * to back (serially, or through SweepRunner for sweep_cache), pass after
 * pass, until the requested seconds are spent. Every point's canonical
 * dumpRunResult digest, events and cycles are compared with the
 * reference file; a mismatch or an exception is a failed operation.
 * The gated timings are scaled by a fixed host probe that runs before
 * every point (HostProbe), so other tenants of a shared host move them
 * far less than they move the raw pass time.
 *
 * Usage:
 *   tacsim-bench --workload W --seed N --seconds S --trace 0|1
 *                --reference FILE --work-dir DIR [--perturb]
 *   tacsim-bench --regen-reference FILE --work-dir DIR
 *
 * The last stdout line is one JSON report: metrics (end-to-end with
 * --trace 0, per-layer with --trace 1), attempted/failed counts, the
 * first errors and the host/build description. perfbench/run.py wraps
 * it; see perfbench/README.md.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hh"
#include "common/host.hh"
#include "serve/json.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool perturb = false;
    std::string reference;
    std::string workDir = ".";
    std::string regen; ///< write a fresh reference here instead
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "tacsim-bench: %s\nusage: tacsim-bench --workload W "
                 "--seed N --seconds S --trace 0|1 --reference FILE "
                 "--work-dir DIR [--perturb]\n"
                 "       tacsim-bench --regen-reference FILE "
                 "--work-dir DIR\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &s, const char *what)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        usage(std::string("bad ") + what + " '" + s + "'");
    return std::strtoull(s.c_str(), nullptr, 10);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = parseUint(value(), "seed");
        else if (arg == "--seconds")
            a.seconds = double(parseUint(value(), "seconds"));
        else if (arg == "--trace")
            a.trace = parseUint(value(), "trace") != 0;
        else if (arg == "--reference")
            a.reference = value();
        else if (arg == "--work-dir")
            a.workDir = value();
        else if (arg == "--regen-reference")
            a.regen = value();
        else if (arg == "--perturb")
            a.perturb = true;
        else
            usage("unknown argument '" + arg + "'");
    }
    if (a.regen.empty() && (a.workload.empty() || a.reference.empty()))
        usage("--workload and --reference are required");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return tacsim::hostCpus();
}

/** Why timings from this build would mislead, or "" when they would
 *  not: assertions live, invariant checker compiled in, sanitizers. */
std::string
buildDefect()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
#ifndef NDEBUG
    return "built without NDEBUG";
#endif
#ifdef TACSIM_VERIFY_ENABLED
    return "built with TACSIM_VERIFY";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
    if (flags.find("-fsanitize") != std::string::npos)
        return "built with a sanitizer";
    if (flags.find("TACSIM_VERIFY") != std::string::npos)
        return "built with TACSIM_VERIFY";
    return "";
}

// -------------------------------------------------------- reference --

struct RefEntry
{
    std::string digest;
    std::uint64_t events = 0, cycles = 0;
};

std::string
refKey(const std::string &workload, std::uint64_t variant,
       const std::string &point)
{
    return workload + " " + std::to_string(variant) + " " + point;
}

std::map<std::string, RefEntry>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    std::map<std::string, RefEntry> ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, point;
        std::uint64_t variant = 0;
        RefEntry e;
        if (!(ls >> wl >> variant >> point >> e.digest >> e.events >>
              e.cycles))
            throw std::runtime_error("malformed reference line: " + line);
        ref[refKey(wl, variant, point)] = e;
    }
    return ref;
}

/** Checks every point run against the reference; keeps the counts. */
class Checker
{
  public:
    Checker(std::map<std::string, RefEntry> ref, std::string workload,
            std::uint64_t variant)
        : ref_(std::move(ref)), workload_(std::move(workload)),
          variant_(variant)
    {}

    /** Count @p r as attempted, and as failed when it errs, misses
     *  the reference, or @p extra names another fault. */
    void
    check(const Point &p, const PointRun &r, const std::string &extra = "")
    {
        ++attempted;
        std::string why;
        const auto it = ref_.find(refKey(workload_, variant_, p.name));
        if (!r.ok)
            why = "exception: " + r.error;
        else if (it == ref_.end())
            why = "no reference entry";
        else if (r.result.events != it->second.events)
            why = "events " + std::to_string(r.result.events) + " != " +
                std::to_string(it->second.events);
        else if (r.result.cycles != it->second.cycles)
            why = "cycles " + std::to_string(r.result.cycles) + " != " +
                std::to_string(it->second.cycles);
        else if (r.digest != it->second.digest)
            why = "dumpRunResult digest differs";
        else
            why = extra;
        if (!why.empty()) {
            ++failed;
            if (errors.size() < 5)
                errors.push_back(p.name + ": " + why);
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;

  private:
    std::map<std::string, RefEntry> ref_;
    std::string workload_;
    std::uint64_t variant_;
};

// -------------------------------------------------------- host probe --

/**
 * Fixed host work that no change to tacsim can alter, in the same style
 * as the simulator's own: ordered and hashed map updates, a sort, a
 * switch-dispatched loop, independent table updates and a text round
 * trip through the standard streams. All of it is branchy, pointer-heavy
 * or wide, so it slows much as tacsim does when other tenants of a
 * shared host crowd the core (a busy sibling hyperthread, a thrashed
 * cache), which swings tacsim's pass time by 20-45% from minute to
 * minute. A pure memory-latency or dependent-arithmetic loop barely
 * moves under that load.
 *
 * Timed passes run the probe before every point. A timing scaled by
 * kRefNs / (the pass's mean probe time) reads as host time on a
 * machine where one probe run takes kRefNs.
 */
class HostProbe
{
  public:
    /** One probe run on the reference host, in ns. */
    static constexpr double kRefNs = 4e6;

    HostProbe() : table_(1u << 15), program_(4096)
    {
        std::uint64_t x = 0x243F6A8885A308D3ull;
        for (std::uint8_t &op : program_)
            op = next(x) & 7;
    }

    /** Run the fixed work once; returns the time taken, in ns. */
    double
    runNs()
    {
        const auto t0 = Clock::now();
        orderedMap();
        hashedMap();
        sort();
        dispatch();
        tableUpdates();
        textRoundTrip();
        return std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    }

    /** Sum of every result, so no part of the work can be elided. */
    std::uint64_t checksum() const { return sink_; }

  private:
    static std::uint64_t
    next(std::uint64_t &x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    void
    orderedMap()
    {
        std::map<std::uint32_t, std::uint32_t> m;
        std::uint64_t x = 777;
        for (std::uint32_t i = 0; i < 4000; ++i)
            m[static_cast<std::uint32_t>(next(x)) & 8191] += i;
        for (const auto &[key, value] : m)
            sink_ += key ^ value;
    }

    void
    hashedMap()
    {
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        std::uint64_t x = 9;
        for (std::uint64_t i = 0; i < 10000; ++i) {
            m[next(x) & 0xffff] += i;
            if (i % 3 == 0)
                m.erase((x >> 20) & 0xffff);
        }
        sink_ += m.size();
    }

    void
    textRoundTrip()
    {
        std::ostringstream out;
        std::uint64_t x = 3;
        for (int i = 0; i < 800; ++i) {
            next(x);
            out << double(x % 100000) / 7.0 << ' ' << (x >> 40) << '\n';
        }
        std::istringstream in(out.str());
        double d;
        std::uint64_t u;
        while (in >> d >> u)
            sink_ += u + static_cast<std::uint64_t>(d);
    }

    void
    sort()
    {
        std::vector<std::uint32_t> v(1u << 13);
        std::uint64_t x = 1234567;
        for (std::uint32_t &e : v)
            e = static_cast<std::uint32_t>(next(x));
        std::sort(v.begin(), v.end());
        sink_ += v[v.size() / 2];
    }

    void
    dispatch()
    {
        std::uint64_t r[4] = {1, 2, 3, 4};
        for (int rep = 0; rep < 8; ++rep)
            for (const std::uint8_t op : program_) {
                switch (op) {
                  case 0: r[0] += r[1]; break;
                  case 1: r[1] ^= r[2] << 1; break;
                  case 2: r[2] = r[2] * 3 + 1; break;
                  case 3: r[3] += r[0] >> 2; break;
                  case 4: if (r[0] & 4) ++r[1]; break;
                  case 5: r[1] += table_[r[0] & 1023]; break;
                  case 6: table_[r[2] & 1023] = r[3]; break;
                  default: if (r[3] > r[2]) std::swap(r[0], r[3]); break;
                }
            }
        sink_ += r[0] + r[1] + r[2] + r[3];
    }

    void
    tableUpdates()
    {
        std::uint64_t x[4] = {1, 2, 3, 4};
        for (unsigned step = 0; step < (1u << 13); ++step)
            for (std::uint64_t &xj : x) {
                std::uint64_t &t = table_[next(xj) & (table_.size() - 1)];
                sink_ += (t & 1) ? t : t >> 3;
                t += xj;
            }
    }

    std::vector<std::uint64_t> table_;
    std::vector<std::uint8_t> program_;
    std::uint64_t sink_ = 0;
};

// ------------------------------------------------------------ passes --

/** One pass of the closed loop over a workload's point set. */
struct Pass
{
    double wallNs = 0;
    double setupNs = 0;
    double busyNs = 0; ///< sum of per-point wall times
    unsigned jobs = 1;
    std::uint64_t simInstr = 0;
    /** Mean time of the pass's host probe runs (0: no probe). */
    double probeNs = 0;

    /** @p ns scaled to the reference host (see HostProbe). */
    double
    scaled(double ns) const
    {
        return ns * HostProbe::kRefNs / probeNs;
    }
};

class Runner
{
  public:
    Runner(const WorkloadDef &wl, Checker &checker, std::string workDir,
           unsigned jobs)
        : wl_(wl), checker_(checker), workDir_(std::move(workDir)),
          jobs_(jobs)
    {}

    /** Run and check one pass. @p counts receives layer counters of a
     *  serial pass (traced runs); with @p probe, the host probe runs
     *  before every point (before each sweep of sweep_cache). */
    Pass
    run(SpanRecorder &spans, LayerCounts *counts = nullptr,
        HostProbe *probe = nullptr)
    {
        return wl_.sweepCache ? sweepPass(spans, probe)
                              : serialPass(spans, counts, probe);
    }

    /** Point runs of the last pass (results, digests, timings). */
    const std::vector<PointRun> &lastRuns() const { return lastRuns_; }

    Pass
    serialPass(SpanRecorder &spans, LayerCounts *counts,
               HostProbe *probe = nullptr)
    {
        Pass pass;
        lastRuns_.clear();
        double probeNs = 0;
        for (std::size_t i = 0; i < wl_.points.size(); ++i) {
            const Point &p = wl_.points[i];
            if (probe)
                probeNs += probe->runNs();
            const auto t0 = Clock::now();
            LayerCounts c;
            PointRun r = runPoint(p, spans, static_cast<std::int32_t>(i),
                                  counts ? &c : nullptr);
            if (counts)
                counts->add(c);
            pass.wallNs += std::chrono::duration<double, std::nano>(
                               Clock::now() - t0)
                               .count();
            pass.setupNs += r.setupNs;
            pass.busyNs += r.wallNs;
            pass.simInstr += p.simulatedInstructions();
            lastRuns_.push_back(std::move(r));
        }
        if (probe)
            pass.probeNs = probeNs / double(wl_.points.size());
        for (std::size_t i = 0; i < wl_.points.size(); ++i)
            checker_.check(wl_.points[i], lastRuns_[i]);
        return pass;
    }

    /** Cold pass into a fresh store, then a warm pass served from it,
     *  both through SweepRunner with the runner's sweep threads. */
    Pass
    sweepPass(SpanRecorder &spans, HostProbe *probe = nullptr)
    {
        const std::string dir = workDir_ + "/sweep-cache";
        std::filesystem::remove_all(dir);
        double probeNs = probe ? probe->runNs() : 0;
        const SweepPass cold = runSweepPass(wl_, dir, jobs_, spans);
        probeNs += probe ? probe->runNs() : 0;
        const SweepPass warm = runSweepPass(wl_, dir, jobs_, spans);
        std::filesystem::remove_all(dir);

        Pass pass;
        pass.jobs = jobs_;
        if (probe)
            pass.probeNs = probeNs / 2;
        pass.wallNs = cold.wallNs + warm.wallNs;
        pass.busyNs = cold.busyNs + warm.busyNs;
        pass.setupNs =
            cold.cacheOpenNs + warm.cacheOpenNs + measureSetupNs(wl_);
        lastRuns_.clear();
        for (std::size_t i = 0; i < wl_.points.size(); ++i) {
            const Point &p = wl_.points[i];
            pass.simInstr += 2 * p.simulatedInstructions();
            // Both passes match the reference, so the warm results are
            // byte-identical to the cold ones.
            checker_.check(p, cold.runs[i],
                           cold.runs[i].cached ? "cold pass hit the cache"
                                               : "");
            checker_.check(p, warm.runs[i],
                           warm.runs[i].cached ? ""
                                               : "warm pass missed the cache");
            lastRuns_.push_back(cold.runs[i]);
        }
        return pass;
    }

  private:
    const WorkloadDef &wl_;
    Checker &checker_;
    std::string workDir_;
    unsigned jobs_;
    std::vector<PointRun> lastRuns_;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric
{
    double value;
    const char *unit;
};

/**
 * End-to-end metrics of the timed passes, each from the median pass.
 * Every pass does identical, deterministic work, so the passes differ
 * only by host noise and by costs that build up across passes.
 * norm_wall_s is the median of the pass walls scaled to the reference
 * host (HostProbe), norm_sim_kips a pass's simulated instructions over
 * that median, setup_s the median of the pass set-up times scaled the
 * same way. wall_s and sim_kips are the same figures unscaled, and
 * probe_ms the median probe time: printed, not gated, because other
 * tenants of the host move the unscaled figures by more than any bound
 * a change could be held to. run.py prints the p90 pass and the pass
 * count beside them.
 */
std::map<std::string, Metric>
endToEndMetrics(const std::vector<Pass> &passes)
{
    std::vector<double> walls, normWalls, normSetups, probes;
    for (const Pass &p : passes) {
        walls.push_back(p.wallNs);
        normWalls.push_back(p.scaled(p.wallNs));
        normSetups.push_back(p.scaled(p.setupNs));
        probes.push_back(p.probeNs);
    }
    const double kinstr = double(passes.front().simInstr) / 1e3;
    const double wall = median(walls) / 1e9;
    const double normWall = median(normWalls) / 1e9;
    return {
        {"norm_wall_s", {normWall, "s"}},
        {"norm_sim_kips", {kinstr / normWall, "kinstr/s"}},
        {"setup_s", {median(normSetups) / 1e9, "s"}},
        {"peak_rss_mb", {double(tacsim::peakRssKb()) / 1024.0, "MB"}},
        {"wall_s", {wall, "s"}},
        {"sim_kips", {kinstr / wall, "kinstr/s"}},
        {"probe_ms", {median(probes) / 1e6, "ms"}},
    };
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::map<std::string, Metric>
perLayerMetrics(const WorkloadDef &wl, Runner &runner, SpanRecorder &spans,
                const Args &args, std::size_t &passCount)
{
    // Untraced and traced passes alternate, so host drift hits both.
    SpanRecorder off(false);
    std::vector<double> plainWall, tracedWall, busy;
    LayerCounts counts;
    bool haveCounts = false;
    double spannedEvents = 0; ///< events of points with System spans
    auto addEvents = [&] {
        for (const PointRun &r : runner.lastRuns())
            spannedEvents += double(r.result.events);
    };
    const auto t0 = Clock::now();
    while (secondsSince(t0) < args.seconds || tracedWall.size() < 2) {
        // Both passes are checked against the reference, so traced
        // points have the untraced points' events and cycles.
        const Pass plain = runner.run(off);
        const Pass traced = runner.run(spans, haveCounts ? nullptr : &counts);
        haveCounts = true;
        if (!wl.sweepCache)
            addEvents();
        plainWall.push_back(plain.wallNs);
        tracedWall.push_back(traced.wallNs);
        if (wl.sweepCache)
            for (const Pass *p : {&plain, &traced})
                busy.push_back(ratio(p->busyNs, p->jobs * p->wallNs));
    }
    if (wl.sweepCache) {
        // The sweep hides its Systems; a serial replay of the same
        // points (checked like any pass) supplies the layer counters.
        runner.serialPass(spans, &counts);
        addEvents();
    } else {
        // Traced sweep passes over the same points, so the sweep and
        // serve layers are measured on every workload (five, so the
        // cache-hit percentiles have samples beyond them).
        for (int i = 0; i < 5; ++i) {
            const Pass p = runner.sweepPass(spans);
            busy.push_back(ratio(p.busyNs, p.jobs * p.wallNs));
        }
    }

    std::map<std::string, Metric> m;
    const double measuredK = double(counts.measuredInstr) / 1e3;
    const double simulatedK = double(counts.simulatedInstr) / 1e3;
    m["common.eq.events_per_kinstr"] = {ratio(double(counts.events),
                                              simulatedK),
                                        "1/kinstr"};
    m["sim.run.ns_per_event"] = {
        ratio(spans.totalNs("System::warmup") + spans.totalNs("System::run"),
              spannedEvents),
        "ns"};
    m["cache.l1d.accesses_per_kinstr"] = {
        ratio(double(counts.l1dAccesses), measuredK), "1/kinstr"};
    m["cache.l2c.accesses_per_kinstr"] = {
        ratio(double(counts.l2cAccesses), measuredK), "1/kinstr"};
    m["cache.llc.accesses_per_kinstr"] = {
        ratio(double(counts.llcAccesses), measuredK), "1/kinstr"};
    m["cache.llc.mshr_merge_frac"] = {
        ratio(double(counts.llcMshrMerges), double(counts.llcMisses)),
        "fraction"};
    m["prefetch.issued_per_kinstr"] = {
        ratio(double(counts.pfIssued), measuredK), "1/kinstr"};
    m["prefetch.useful_frac"] = {
        ratio(double(counts.pfUseful), double(counts.pfIssued)), "fraction"};
    m["vm.walks_per_kinstr"] = {ratio(double(counts.walks), measuredK),
                                "1/kinstr"};
    m["vm.psc_hit_frac"] = {
        counts.pscLookups
            ? 1.0 - double(counts.pscFullMisses) / double(counts.pscLookups)
            : 0.0,
        "fraction"};
    // PSCL5 nearly always hits; the PSCL2 share says how many walks
    // read only their leaf.
    m["vm.pscl2_hit_frac"] = {
        ratio(double(counts.pscl2Hits), double(counts.pscLookups)),
        "fraction"};
    m["mem.dram.row_hit_frac"] = {
        ratio(double(counts.dramRowHits), double(counts.dramAccesses)),
        "fraction"};
    m["workloads.next_calls"] = {double(counts.nextCalls), "count"};
    m["sim.sweep.busy_frac"] = {median(busy), "fraction"};
    passCount = tracedWall.size();
    m["trace_overhead_frac"] = {
        ratio(median(tracedWall), median(plainWall)) - 1.0, "fraction"};

    const std::vector<double> keys = spans.durations("serve::pointKey");
    const std::vector<double> stores = spans.durations("ResultCache::store");
    const std::vector<double> hits =
        spans.durations("ResultCache::lookup.hit");
    m["serve.point_key_us"] = {median(keys) / 1e3, "us"};
    m["serve.cache_store_ms"] = {median(stores) / 1e6, "ms"};
    m["serve.cache_hit_us_p50"] = {quantile(hits, 0.5) / 1e3, "us"};
    m["serve.cache_hit_us_p90"] = {quantile(hits, 0.9) / 1e3, "us"};

    for (const auto &[name, value] :
         runLayerDrivers(wl, args.seed, args.workDir))
        m[name] = {value, "ns"};
    return m;
}

int
runBenchmark(const Args &args)
{
    const std::uint64_t variant = args.seed % kSeedVariants;
    const WorkloadDef wl = makeWorkloadDef(args.workload, variant,
                                           args.perturb);
    Checker checker(loadReference(args.reference), wl.name, variant);
    const unsigned cpus = nproc();
    const unsigned jobs = std::min(cpus, 4u); // sweep threads
    std::filesystem::create_directories(args.workDir);
    Runner runner(wl, checker, args.workDir, jobs);

    // One untimed pass first: lazy allocations and the host's caches
    // settle before anything is timed (it is still checked).
    SpanRecorder off(false);
    HostProbe probe;
    runner.run(off, nullptr, &probe);

    std::map<std::string, Metric> metrics;
    std::size_t passCount = 0;
    std::vector<double> passWalls, passProbes;
    SpanRecorder spans(args.trace);
    if (args.trace) {
        metrics = perLayerMetrics(wl, runner, spans, args, passCount);
        spans.writeChromeTrace(args.workDir + "/spans-" + wl.name + ".json");
    } else {
        std::vector<Pass> passes;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < args.seconds || passes.size() < 3)
            passes.push_back(runner.run(off, nullptr, &probe));
        passCount = passes.size();
        metrics = endToEndMetrics(passes);
        for (const Pass &p : passes) {
            passWalls.push_back(p.wallNs / 1e9);
            passProbes.push_back(p.probeNs / 1e6);
        }
    }

    double loadAvg = 0;
    if (std::FILE *f = std::fopen("/proc/loadavg", "r")) {
        if (std::fscanf(f, "%lf", &loadAvg) != 1)
            loadAvg = 0;
        std::fclose(f);
    }

    using tacsim::serve::JsonArray;
    using tacsim::serve::JsonObject;
    JsonArray errors(checker.errors.begin(), checker.errors.end());
    JsonArray walls(passWalls.begin(), passWalls.end());
    JsonArray probeTimes(passProbes.begin(), passProbes.end());
    JsonObject values;
    for (const auto &[name, m] : metrics)
        values[name] = JsonObject{{"value", m.value}, {"unit", m.unit}};
    const JsonObject host{
        {"nproc", std::uint64_t{cpus}},
        {"compiler", tacsim::hostCompiler()},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"loadavg", loadAvg},
        {"probe_checksum", probe.checksum()},
    };
    const JsonObject report{
        {"workload", wl.name},
        {"seed", args.seed},
        {"variant", variant},
        {"trace", std::uint64_t{args.trace}},
        {"passes", std::uint64_t{passCount}},
        {"points", std::uint64_t{wl.points.size()}},
        {"jobs", std::uint64_t{jobs}},
        {"attempted", checker.attempted},
        {"failed", checker.failed},
        {"errors", errors},
        {"pass_wall_s", walls},
        {"pass_probe_ms", probeTimes},
        {"host", host},
        {"metrics", values},
    };
    std::printf("%s\n", tacsim::serve::JsonValue(report).dump().c_str());
    return checker.failed ? 1 : 0;
}

/** Run one serial pass of every workload x input variant and write
 *  their reference lines. */
int
regenerateReference(const Args &args)
{
    struct Job
    {
        std::string workload;
        std::uint64_t variant;
        std::vector<std::string> lines;
        std::string error;
    };
    std::vector<Job> todo;
    for (const std::string &name : workloadNames())
        for (std::uint64_t v = 0; v < kSeedVariants; ++v)
            todo.push_back(Job{name, v, {}, ""});

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        SpanRecorder off(false);
        for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
            Job &job = todo[i];
            const WorkloadDef wl = makeWorkloadDef(job.workload, job.variant);
            for (std::size_t k = 0; k < wl.points.size(); ++k) {
                const PointRun r = runPoint(wl.points[k], off,
                                            static_cast<std::int32_t>(k));
                if (!r.ok) {
                    job.error = wl.points[k].name + ": " + r.error;
                    break;
                }
                job.lines.push_back(
                    refKey(job.workload, job.variant, wl.points[k].name) +
                    " " + r.digest + " " + std::to_string(r.result.events) +
                    " " + std::to_string(r.result.cycles));
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::min(nproc(), 4u); ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    std::ofstream out(args.regen);
    out << "# tacsim-bench reference: workload variant point "
           "sha256(dumpRunResult) events cycles\n"
           "# regenerate: python3 perfbench/run.py --regen-reference\n";
    for (const Job &job : todo) {
        if (!job.error.empty()) {
            std::fprintf(stderr, "tacsim-bench: %s %llu: %s\n",
                         job.workload.c_str(),
                         static_cast<unsigned long long>(job.variant),
                         job.error.c_str());
            return 1;
        }
        for (const std::string &line : job.lines)
            out << line << "\n";
    }
    return out.good() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (const std::string defect = buildDefect(); !defect.empty()) {
        std::fprintf(stderr,
                     "tacsim-bench: refusing to time this build (%s)\n",
                     defect.c_str());
        return 3;
    }
    try {
        return args.regen.empty() ? runBenchmark(args)
                                  : regenerateReference(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tacsim-bench: %s\n", e.what());
        return 2;
    }
}
