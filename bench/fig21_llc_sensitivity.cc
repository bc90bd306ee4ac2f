/**
 * @file
 * Paper Fig. 21: LLC-size sensitivity — proposal speedup vs same-size
 * baseline for 1MB to 8MB LLCs.
 *
 * Paper reference points: average gain declines from 6.3% at 1MB to
 * 4.2% at 8MB (bigger LLCs retain translations by capacity); mcf keeps
 * gaining because its data set still does not fit.
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

struct Geom
{
    std::uint32_t sizeMb;
    Cycle latency;
    double paperAvg;
};
const Geom kGeoms[] = {
    {1, 18, 6.3}, {2, 20, 5.1}, {4, 22, std::nan("")}, {8, 24, 4.2}};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc, Benchmark::pr};

std::string
series(const Geom &g)
{
    return "LLC=" + std::to_string(g.sizeMb) + "MB";
}

void
points(SweepRunner &sw)
{
    for (const Geom &g : kGeoms) {
        SystemConfig base = baselineConfig();
        base.llcPerCore.sizeBytes = g.sizeMb * 1024 * 1024;
        base.llcPerCore.latency = g.latency;
        addProposalPairs(sw, "fig21/" + series(g), base, kSubset);
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::uint32_t, std::vector<double>> speedups;
    for (const Geom &g : kGeoms) {
        for (Benchmark b : kSubset) {
            const std::string bname = benchmarkName(b);
            const std::string pre = "fig21/" + series(g);
            out.group([&] {
                const double sp = speedup(out.at(pre + "/base/" + bname),
                                          out.at(pre + "/prop/" + bname));
                out.add(series(g), bname, (sp - 1) * 100, std::nan(""), "%");
                speedups[g.sizeMb].push_back(sp);
            });
        }
    }

    for (const Geom &g : kGeoms)
        out.add(series(g), "geomean", (geomean(speedups[g.sizeMb]) - 1) * 100,
                g.paperAvg, "%");
    return out.take();
}

} // namespace

extern const Figure fig21LlcSensitivity = {
    "fig21_llc_sensitivity", "Fig. 21 — LLC size sensitivity", points,
    reduce};

} // namespace tacbench
