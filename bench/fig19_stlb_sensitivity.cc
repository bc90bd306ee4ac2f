/**
 * @file
 * Paper Fig. 19: STLB-size sensitivity — the proposal's speedup vs a
 * same-size baseline, for 512 to 4096 STLB entries.
 *
 * Paper reference points: gains persist across sizes (recall distances
 * of the costly translations are large); gains shrink as the STLB grows
 * because STLB MPKI drops; mcf saturates once its translations fit
 * (STLB MPKI 0.39 at 4096 entries).
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

const std::uint32_t kSizes[] = {512, 1024, 2048, 4096};
const Benchmark kSubset[] = {Benchmark::xalancbmk, Benchmark::canneal,
                             Benchmark::mcf, Benchmark::cc, Benchmark::pr};

std::string
series(std::uint32_t entries)
{
    return "STLB=" + std::to_string(entries);
}

void
points(SweepRunner &sw)
{
    for (std::uint32_t entries : kSizes) {
        SystemConfig base = baselineConfig();
        base.stlbEntries = entries;
        addProposalPairs(sw, "fig19/" + series(entries), base, kSubset);
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::uint32_t, std::vector<double>> speedups;
    for (std::uint32_t entries : kSizes) {
        const std::string pre = "fig19/" + series(entries);
        for (Benchmark b : kSubset) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                const RunResult &rb = out.at(pre + "/base/" + bname);
                const double sp = speedup(rb, out.at(pre + "/prop/" + bname));
                out.add(series(entries), bname, (sp - 1) * 100, std::nan(""),
                        "% (stlbMPKI " + std::to_string(rb.stlbMpki) + ")");
                speedups[entries].push_back(sp);
            });
        }
    }

    for (std::uint32_t e : kSizes)
        out.add(series(e), "geomean", (geomean(speedups[e]) - 1) * 100,
                std::nan(""), "% (paper: positive at all sizes, shrinking)");
    return out.take();
}

} // namespace

extern const Figure fig19StlbSensitivity = {
    "fig19_stlb_sensitivity", "Fig. 19 — STLB size sensitivity", points,
    reduce};

} // namespace tacbench
