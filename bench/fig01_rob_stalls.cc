/**
 * @file
 * Paper Fig. 1: average and maximum cycles a demand access stalls at the
 * head of the ROB, split into the translation phase of STLB-missing
 * accesses (T), the replay-data phase (R), and non-replay loads.
 *
 * Paper reference points (averages across their suite): STLB-miss
 * translation stall avg 33 / max 54 cycles; replay stall avg 191 /
 * max 226; non-replay loads avg 47.
 */

#include <algorithm>

#include "bench_common.hh"

namespace tacbench {

namespace {

void
points(SweepRunner &sw)
{
    addEach(sw, "base", baselineConfig(), kAllBenchmarks);
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> avgT, avgR, avgN;
    for (Benchmark b : kAllBenchmarks) {
        const std::string name = benchmarkName(b);
        out.group([&] {
            const RunResult &r = out.at("base/" + name);
            out.add("T-stall avg", name, r.avgStallPerWalk, std::nan(""),
                    "cycles");
            out.add("R-stall avg", name, r.avgStallPerReplay,
                    std::nan(""), "cycles");
            out.add("NonReplay-stall avg", name, r.avgStallPerNonReplay,
                    std::nan(""), "cycles");
            avgT.push_back(r.avgStallPerWalk);
            avgR.push_back(r.avgStallPerReplay);
            avgN.push_back(r.avgStallPerNonReplay);
        });
    }

    auto vmax = [](const std::vector<double> &v) {
        double m = 0;
        for (double x : v)
            m = std::max(m, x);
        return m;
    };
    out.add("T-stall", "suite avg", mean(avgT), 33, "cycles");
    out.add("T-stall", "suite max", vmax(avgT), 54, "cycles");
    out.add("R-stall", "suite avg", mean(avgR), 191, "cycles");
    out.add("R-stall", "suite max", vmax(avgR), 226, "cycles");
    out.add("NonReplay-stall", "suite avg", mean(avgN), 47, "cycles");
    return out.take();
}

} // namespace

extern const Figure fig01RobStalls = {
    "fig01_rob_stalls",
    "Fig. 1 — ROB-head stall cycles (T / R / non-replay)", points,
    reduce};

} // namespace tacbench
