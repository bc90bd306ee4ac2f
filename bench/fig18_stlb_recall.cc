/**
 * @file
 * Paper Fig. 18: recall distance of translations at the STLB itself —
 * the argument against dead-entry bypassing at the TLB (CbPred/DpPred):
 * on average more than 40% of STLB entries have a recall distance
 * beyond 50, so bypassing dead entries cannot expedite the costly
 * misses.
 */

#include <iterator>

#include "bench_common.hh"

namespace tacbench {

namespace {

/** STLB recall fraction (%) beyond 50, one slot per benchmark of the
 *  suite, filled by its custom point. */
double gOver50[std::size(kAllBenchmarks)];

std::string
recallKey(Benchmark b)
{
    return "custom/fig18/" + benchmarkName(b);
}

void
points(SweepRunner &sw)
{
    SystemConfig cfg = baselineConfig();
    cfg.profileStlbRecall = true;
    for (std::size_t i = 0; i < std::size(kAllBenchmarks); ++i) {
        addProfiled(sw, recallKey(kAllBenchmarks[i]), cfg,
                    kAllBenchmarks[i], [slot = &gOver50[i]](System &sys) {
            const Histogram &h =
                sys.stlb().recallProfiler()->translationHist();
            *slot = (1 - h.fractionAtOrBelow(50)) * 100;
        });
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> over50;
    for (std::size_t i = 0; i < std::size(kAllBenchmarks); ++i) {
        const std::string name = benchmarkName(kAllBenchmarks[i]);
        out.group([&] {
            // Drops this group when the point failed.
            out.at(recallKey(kAllBenchmarks[i]));
            out.add("STLB recall>50", name, gOver50[i], std::nan(""), "%");
            over50.push_back(gOver50[i]);
        });
    }

    out.add("STLB recall>50", "suite avg", mean(over50), 40.0,
            "% (paper: >40%)");
    return out.take();
}

} // namespace

extern const Figure fig18StlbRecall = {
    "fig18_stlb_recall",
    "Fig. 18 — recall distance of translations at STLB", points, reduce};

} // namespace tacbench
