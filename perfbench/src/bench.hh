/**
 * @file
 * Shared declarations of the tacsim benchmark driver (tacsim-bench):
 * the named workloads and their simulation points, the span recorder
 * used by traced runs, and the per-layer drivers.
 *
 * The benchmark only calls the simulator's public API; every span is
 * recorded here, around a call into a layer, never inside src/.
 */

#ifndef TACSIM_PERFBENCH_BENCH_HH
#define TACSIM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/runner.hh"
#include "sim/system.hh"

namespace perfbench {

using tacsim::RunResult;
using tacsim::SystemConfig;

/** Inputs of a run derive from `seed % kSeedVariants`; the reference
 *  file holds every variant, so any seed can be checked. */
constexpr std::uint64_t kSeedVariants = 32;

/** One deterministic simulation point of a workload. */
struct Point
{
    std::string name;               ///< e.g. "pr/proposed"
    SystemConfig cfg;
    std::vector<std::string> specs; ///< one workload spec per thread
    std::uint64_t instructions = 0; ///< measured, per thread
    std::uint64_t warmup = 0;       ///< per thread

    /** Instructions simulated by the point (warm-up included). */
    std::uint64_t
    simulatedInstructions() const
    {
        return (instructions + warmup) * specs.size();
    }
};

/** A named workload: the point set one pass of the closed loop runs. */
struct WorkloadDef
{
    std::string name;
    std::vector<Point> points;
    /** Run the points through SweepRunner + a fresh tacsim-cache-v1
     *  store (cold pass, then warm pass) instead of serially. */
    bool sweepCache = false;
};

/** Every workload name, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for input variant @p variant; throws on an
 *  unknown name. @p perturb alters every point's config (a test hook
 *  that must make every point miss its reference). */
WorkloadDef makeWorkloadDef(const std::string &name, std::uint64_t variant,
                            bool perturb = false);

// ----------------------------------------------------------- spans --

using Clock = std::chrono::steady_clock;

/** One timed call: name, start/end in ns since the recorder's origin,
 *  and the point it served (-1 for calls not tied to one point). The
 *  "point" span of a point encloses all of that point's other spans. */
struct Span
{
    const char *name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t point;
};

/**
 * In-memory span store. Disabled recorders cost one branch per call
 * site; enabled ones append under a mutex (sweep worker threads record
 * cache lookups/stores concurrently). Spans are written out once, when
 * the run ends.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    /** Record the span [startNs, now); no-op when disabled. */
    void
    close(const char *name, std::int64_t startNs, std::int32_t point)
    {
        if (!enabled_)
            return;
        const std::int64_t end = nowNs();
        std::lock_guard<std::mutex> lk(mutex_);
        spans_.push_back(Span{name, startNs, end, point});
    }

    /** Total duration (ns) of the spans named @p name. */
    double totalNs(const std::string &name) const;

    /** Durations (ns) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Write the spans as Chrome-trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// ------------------------------------------------- point execution --

/** Outcome of one point in one pass. */
struct PointRun
{
    RunResult result;
    std::string digest; ///< sha256 of dumpRunResult(result)
    double setupNs = 0; ///< workload generation + System construction
    double wallNs = 0;  ///< whole point, set-up included
    bool ok = false;
    bool cached = false; ///< served from the result cache
    std::string error;
};

/** Counters read from a finished System (traced runs only). */
struct LayerCounts
{
    std::uint64_t measuredInstr = 0; ///< measured phase, all threads
    std::uint64_t simulatedInstr = 0; ///< warm-up + measured
    std::uint64_t events = 0;
    std::uint64_t l1dAccesses = 0, l2cAccesses = 0, llcAccesses = 0;
    std::uint64_t llcMisses = 0, llcMshrMerges = 0;
    std::uint64_t pfIssued = 0, pfUseful = 0;
    std::uint64_t walks = 0, pscLookups = 0, pscFullMisses = 0, pscl2Hits = 0;
    std::uint64_t dramRowHits = 0, dramAccesses = 0;
    std::uint64_t nextCalls = 0; ///< Workload::next calls

    void add(const LayerCounts &o);
};

/**
 * Run one point through the public API (makeWorkloadFromSpec, System,
 * warmup, run, collectResult), exactly as runSpecMix does. With an
 * enabled recorder every call gets a span and the workloads are
 * wrapped in a counting decorator; @p counts (optional) receives the
 * System's layer counters.
 */
PointRun runPoint(const Point &p, SpanRecorder &spans, std::int32_t pointId,
                  LayerCounts *counts = nullptr);

/** Result of one sweep pass (cold or warm) over a workload. */
struct SweepPass
{
    std::vector<PointRun> runs; ///< in point order
    double wallNs = 0;
    double cacheOpenNs = 0;
    double busyNs = 0; ///< sum of per-point wall times
};

/**
 * Run every point of @p wl through SweepRunner with @p jobs threads,
 * attached to the tacsim-cache-v1 store at @p cacheDir (opened here).
 */
SweepPass runSweepPass(const WorkloadDef &wl, const std::string &cacheDir,
                       unsigned jobs, SpanRecorder &spans);

/** Sum over points of the time to generate workloads and construct the
 *  System, measured by building each point without running it. */
double measureSetupNs(const WorkloadDef &wl);

/** The System @p p runs, with the workloads its threads get. */
std::unique_ptr<tacsim::System> buildSystem(const Point &p);

// ---------------------------------------------------- layer drivers --

/** Per-layer metrics from the component drivers (name -> value). */
std::map<std::string, double> runLayerDrivers(const WorkloadDef &wl,
                                              std::uint64_t seed,
                                              const std::string &workDir);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);
/** Linear-interpolated quantile @p q in [0,1] of @p v. */
double quantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // TACSIM_PERFBENCH_BENCH_HH
