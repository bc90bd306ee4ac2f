/**
 * @file
 * Paper Fig. 20: L2C-size sensitivity — proposal speedup vs same-size
 * baseline for 256KB to 1MB L2 caches (larger L2Cs get slightly higher
 * latency, as the paper notes for 1MB).
 *
 * Paper reference points: average gain roughly flat at 768KB and lower
 * at 1MB (baseline retains more translations by capacity); xalancbmk
 * keeps gaining; mcf's gain shrinks once translations fit.
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

struct Geom
{
    std::uint32_t sizeKb;
    std::uint32_t ways;
    Cycle latency;
};
const Geom kGeoms[] = {
    {256, 8, 9}, {512, 8, 10}, {768, 12, 11}, {1024, 16, 12}};

const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc, Benchmark::pr};

std::string
series(const Geom &g)
{
    return "L2C=" + std::to_string(g.sizeKb) + "KB";
}

void
points(SweepRunner &sw)
{
    for (const Geom &g : kGeoms) {
        SystemConfig base = baselineConfig();
        base.l2.sizeBytes = g.sizeKb * 1024;
        base.l2.ways = g.ways;
        base.l2.latency = g.latency;
        addProposalPairs(sw, "fig20/" + series(g), base, kSubset);
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
            const std::string pre = "fig20/" + series(g);
            out.group([&] {
                const double sp = speedup(out.at(pre + "/base/" + bname),
                                          out.at(pre + "/prop/" + bname));
                out.add(series(g), bname, (sp - 1) * 100, std::nan(""), "%");
                speedups[g.sizeKb].push_back(sp);
            });
        }
    }

    for (const Geom &g : kGeoms)
        out.add(series(g), "geomean", (geomean(speedups[g.sizeKb]) - 1) * 100,
                std::nan(""), "% (paper: flat to declining past 512KB)");
    return out.take();
}

} // namespace

extern const Figure fig20L2cSensitivity = {
    "fig20_l2c_sensitivity", "Fig. 20 — L2C size sensitivity", points,
    reduce};

} // namespace tacbench
