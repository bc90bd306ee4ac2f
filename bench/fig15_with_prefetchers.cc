/**
 * @file
 * Paper Fig. 15: speedup of the full proposal when the baseline already
 * has a state-of-the-art data prefetcher.
 *
 * Paper reference points (suite average speedup of the proposal on a
 * prefetching baseline): IPCP +11.2%, Bingo +7.5%, SPP +6.4%,
 * ISB +7.2% — slightly larger than without prefetching because these
 * prefetchers do not cover the irregular (replay) misses.
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

struct Pf
{
    const char *name;
    PrefetcherKind l1;
    PrefetcherKind l2;
    double paperAvg;
};
const Pf kPfs[] = {
    {"IPCP", PrefetcherKind::Ipcp, PrefetcherKind::None, 11.2},
    {"Bingo", PrefetcherKind::None, PrefetcherKind::Bingo, 7.5},
    {"SPP", PrefetcherKind::None, PrefetcherKind::Spp, 6.4},
    {"ISB", PrefetcherKind::None, PrefetcherKind::Isb, 7.2},
};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc,
                             Benchmark::pr, Benchmark::radii};

void
points(SweepRunner &sw)
{
    for (const Pf &p : kPfs) {
        SystemConfig base = baselineConfig();
        base.l1Prefetcher = p.l1;
        base.l2Prefetcher = p.l2;
        addProposalPairs(sw, std::string("fig15/") + p.name, base, kSubset);
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::string, std::vector<double>> series;
    for (const Pf &p : kPfs) {
        const std::string pre = std::string("fig15/") + p.name;
        for (Benchmark b : kSubset) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                const double sp = speedup(out.at(pre + "/base/" + bname),
                                          out.at(pre + "/prop/" + bname));
                out.add(p.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[p.name].push_back(sp);
            });
        }
    }

    for (const Pf &p : kPfs)
        out.add(p.name, "geomean", (geomean(series[p.name]) - 1) * 100,
                p.paperAvg, "%");
    return out.take();
}

} // namespace

extern const Figure fig15WithPrefetchers = {
    "fig15_with_prefetchers",
    "Fig. 15 — proposal speedup on prefetching baselines", points, reduce};

} // namespace tacbench
