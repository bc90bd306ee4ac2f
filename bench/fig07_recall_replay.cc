/**
 * @file
 * Paper Fig. 7: recall-distance distribution of replay-load blocks at
 * the LLC (A) and L2C (B).
 *
 * Paper reference point: more than 60% of replay blocks have a recall
 * distance beyond 50 unique set accesses — retention cannot save them,
 * which is why the paper prefetches them (ATP) instead.
 */

#include <iterator>

#include "bench_common.hh"

namespace tacbench {

namespace {

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr, Benchmark::bf};

/** Replay recall fractions (%) beyond 50 of one benchmark. */
struct Recall
{
    double llc = 0, l2c = 0;
};

/** One slot per kSubset entry, filled by its custom point. */
Recall gRecall[std::size(kSubset)];

std::string
recallKey(Benchmark b)
{
    return "custom/fig07/" + benchmarkName(b);
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
                sys.llc().recallProfiler()->replayHist();
            const Histogram &l2c = sys.l2().recallProfiler()->replayHist();
            slot->llc = (1 - llc.fractionAtOrBelow(50)) * 100;
            slot->l2c = (1 - l2c.fractionAtOrBelow(50)) * 100;
        });
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> over50;
    for (std::size_t i = 0; i < std::size(kSubset); ++i) {
        const std::string name = benchmarkName(kSubset[i]);
        out.group([&] {
            // Drops this group when the point failed.
            out.at(recallKey(kSubset[i]));
            const Recall &r = gRecall[i];
            out.add("LLC recall>50", name, r.llc, std::nan(""), "%");
            out.add("L2C recall>50", name, r.l2c, std::nan(""), "%");
            over50.push_back(r.llc);
        });
    }

    out.add("LLC recall>50", "suite avg", mean(over50), 60.0, "%");
    return out.take();
}

} // namespace

extern const Figure fig07RecallReplay = {
    "fig07_recall_replay",
    "Fig. 7 — recall distance of replays at LLC/L2C", points, reduce};

} // namespace tacbench
