/**
 * @file
 * The figure registry behind `tacsim-fig`, and the plumbing the figure
 * sources share.
 *
 * Every paper table and figure is one Figure. Its points() registers
 * each simulation point the figure needs on a SweepRunner; its reduce()
 * reads the finished results and returns the paper-vs-measured rows in
 * print order. The driver (tacsim_fig.cc) registers, runs the sweep
 * once, then reduces, so every point runs on the TACSIM_JOBS pool, and
 * a point several figures share (base/<bench>) runs once under `all`.
 *
 * Instruction budgets: TACSIM_INSTRUCTIONS / TACSIM_WARMUP override the
 * defaults for higher-fidelity runs. TACSIM_JSON_OUT=<path> additionally
 * writes the table plus per-run metadata as a JSON report.
 */

#ifndef TACSIM_BENCH_COMMON_HH
#define TACSIM_BENCH_COMMON_HH

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace tacbench {

using namespace tacsim;

/** One paper table or figure. */
struct Figure
{
    const char *name;  ///< driver argument, e.g. "fig04_translation_mpki"
    const char *title; ///< table heading
    /** Register every simulation point the figure reads. */
    void (*points)(SweepRunner &);
    /** Rows from the finished points, in print order. */
    std::vector<ReportRow> (*reduce)(SweepRunner &);
};

/** Every figure, in paper order (the order of `list` and `all`). */
const std::vector<const Figure *> &figures();

/** The figure called @p name, or nullptr. */
const Figure *findFigure(const std::string &name);

/** Rows::at() of a point whose job failed. */
struct PointFailed : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * The rows a reduce() step builds from finished points. Rows come in
 * groups (one benchmark, one variant, one summary); a group that reads
 * a failed point is dropped whole, so the table keeps every row the
 * succeeded points support. A group reads all its points before it
 * feeds a summary series kept outside it, so a dropped group leaves no
 * trace there either.
 */
class Rows
{
  public:
    explicit Rows(SweepRunner &sweep) : sweep_(sweep) {}

    /** Result of @p key. Throws PointFailed when its job failed, and
     *  std::logic_error when the key was never registered or has not
     *  run (a figure whose reduce() reads outside its points()). */
    const RunResult &
    at(const std::string &key) const
    {
        const SweepOutcome *o = sweep_.outcome(key);
        if (!o)
            throw std::logic_error("figure reads sweep point '" + key +
                                   "', which is not registered or has "
                                   "not run");
        if (!o->ok)
            throw PointFailed(key);
        return o->result;
    }

    void
    add(std::string series, std::string label, double measured,
        double paper = std::nan(""), std::string unit = "")
    {
        rows_.push_back({std::move(series), std::move(label), measured,
                         paper, std::move(unit)});
    }

    /** Run one group of rows; drop it if it read a failed point. */
    template <typename Fn>
    void
    group(Fn &&fn)
    {
        const std::size_t before = rows_.size();
        try {
            fn();
        } catch (const PointFailed &) {
            rows_.resize(before);
        }
    }

    std::vector<ReportRow> take() { return std::move(rows_); }

  private:
    SweepRunner &sweep_;
    std::vector<ReportRow> rows_;
};

/** Baseline Table-I system: DRRIP@L2, SHiP@LLC, no prefetchers. */
inline SystemConfig
baselineConfig()
{
    return SystemConfig{};
}

/** @p cfg with the paper's full proposal (T-policies, ATP, TEMPO)
 *  applied on top. */
inline SystemConfig
withProposal(SystemConfig cfg)
{
    TranslationAwareOptions o;
    o.tempo = true;
    applyTranslationAware(cfg, o);
    return cfg;
}

/** The paper's full proposal on top of the baseline. */
inline SystemConfig
proposedConfig()
{
    return withProposal(baselineConfig());
}

/** Register @p cfg on every benchmark of @p subset, keyed
 *  "<prefix>/<bench>". */
template <typename Subset>
void
addEach(SweepRunner &sw, const std::string &prefix, const SystemConfig &cfg,
        const Subset &subset)
{
    for (Benchmark b : subset)
        sw.add(prefix + "/" + benchmarkName(b), cfg, b);
}

/** Register @p base and withProposal(@p base) on every benchmark of
 *  @p subset, keyed "<prefix>/base/<bench>" and "<prefix>/prop/<bench>". */
template <typename Subset>
void
addProposalPairs(SweepRunner &sw, const std::string &prefix,
                 const SystemConfig &base, const Subset &subset)
{
    addEach(sw, prefix + "/base", base, subset);
    addEach(sw, prefix + "/prop", withProposal(base), subset);
}

/**
 * Register a custom point that runs @p b on @p cfg in a System built by
 * hand, for the recall-profile figures: their histograms live in the
 * System, which RunResult does not carry. @p read copies what the
 * figure needs into a slot the figure owns (one per point, allocated
 * before SweepRunner::run()) while the System is still alive.
 */
inline void
addProfiled(SweepRunner &sw, const std::string &key, const SystemConfig &cfg,
            Benchmark b, std::function<void(System &)> read)
{
    sw.addCustom(key, [cfg, b, read = std::move(read),
                       warm = defaultWarmup(),
                       instr = defaultInstructions()] {
        std::vector<std::unique_ptr<Workload>> w;
        w.push_back(makeWorkload(b, cfg.seed));
        System sys(cfg, std::move(w));
        sys.warmup(warm);
        sys.run(instr);
        read(sys);
        return collectResult(sys, benchmarkName(b));
    });
}

/** A VM axis (fig14_vm, fig16_vm): a figure's comparison rerun under
 *  THP-style huge pages or nested (guest×host) translation. */
struct VmAxis
{
    const char *name; ///< sweep-key segment, e.g. "thp50"
    double thp2m;
    double thp1g;
    bool nested;
};

inline SystemConfig
withVmAxis(SystemConfig cfg, const VmAxis &a)
{
    cfg.vm.hugePages2M = a.thp2m;
    cfg.vm.hugePages1G = a.thp1g;
    cfg.vm.nested = a.nested;
    return cfg;
}

/** Arithmetic mean; 0 for an empty series. */
inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

/** Geometric mean of (positive) values. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / double(v.size()));
}

} // namespace tacbench

#endif // TACSIM_BENCH_COMMON_HH
