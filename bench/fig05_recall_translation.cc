/**
 * @file
 * Paper Fig. 5: recall-distance distribution of leaf-level translation
 * blocks at the LLC (A) and L2C (B). Recall distance = accesses arriving
 * at the set between a block's eviction and its next request.
 *
 * Paper reference point: ~30% of translation blocks have a recall
 * distance within 50 — i.e. retaining them a little longer converts
 * their misses into hits, which is T-DRRIP/T-SHiP's premise.
 */

#include <iterator>

#include "bench_common.hh"

namespace tacbench {

namespace {

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::xalancbmk};

/** Translation recall fractions (%) of one benchmark. */
struct Recall
{
    double llc50 = 0, l2c50 = 0, llc10 = 0;
};

/** One slot per kSubset entry, filled by its custom point. */
Recall gRecall[std::size(kSubset)];

std::string
recallKey(Benchmark b)
{
    return "custom/fig05/" + benchmarkName(b);
}

void
points(SweepRunner &sw)
{
    SystemConfig cfg = baselineConfig();
    cfg.profileCacheRecall = true;
    for (std::size_t i = 0; i < std::size(kSubset); ++i) {
        addProfiled(sw, recallKey(kSubset[i]), cfg, kSubset[i],
                    [slot = &gRecall[i]](System &sys) {
            const Histogram &llc =
                sys.llc().recallProfiler()->translationHist();
            const Histogram &l2c =
                sys.l2().recallProfiler()->translationHist();
            slot->llc50 = llc.fractionAtOrBelow(50) * 100;
            slot->l2c50 = l2c.fractionAtOrBelow(50) * 100;
            slot->llc10 = llc.fractionAtOrBelow(10) * 100;
        });
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> llc50, l2c50;
    for (std::size_t i = 0; i < std::size(kSubset); ++i) {
        const std::string name = benchmarkName(kSubset[i]);
        out.group([&] {
            // Drops this group when the point failed.
            out.at(recallKey(kSubset[i]));
            const Recall &r = gRecall[i];
            out.add("LLC recall<=50", name, r.llc50, std::nan(""), "%");
            out.add("L2C recall<=50", name, r.l2c50, std::nan(""), "%");
            out.add("LLC recall<=10", name, r.llc10, std::nan(""), "%");
            llc50.push_back(r.llc50);
            l2c50.push_back(r.l2c50);
        });
    }

    out.add("LLC recall<=50", "suite avg", mean(llc50), 30.0, "%");
    out.add("L2C recall<=50", "suite avg", mean(l2c50), 30.0, "%");
    return out.take();
}

} // namespace

extern const Figure fig05RecallTranslation = {
    "fig05_recall_translation",
    "Fig. 5 — recall distance of leaf translations at LLC/L2C", points,
    reduce};

} // namespace tacbench
