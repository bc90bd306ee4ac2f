/**
 * @file
 * Paper Table II: per-benchmark characterization — STLB MPKI and the
 * L2C/LLC MPKIs for replay loads, non-replay loads and leaf-level
 * translations (PTL1), on the baseline system.
 */

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
    for (Benchmark b : kAllBenchmarks) {
        const std::string name = benchmarkName(b);
        out.group([&] {
            const RunResult &r = out.at("base/" + name);
            const TableTwoRow &p = paperTableTwo(b);
            out.add("STLB MPKI", name, r.stlbMpki, p.stlbMpki, "MPKI");
            out.add("L2C replay", name, r.l2ReplayMpki, p.l2Replay,
                    "MPKI");
            out.add("L2C non-replay", name, r.l2NonReplayMpki,
                    p.l2NonReplay, "MPKI");
            out.add("L2C PTL1", name, r.l2Ptl1Mpki, p.l2Ptl1, "MPKI");
            out.add("LLC replay", name, r.llcReplayMpki, p.llcReplay,
                    "MPKI");
            out.add("LLC non-replay", name, r.llcNonReplayMpki,
                    p.llcNonReplay, "MPKI");
            out.add("LLC PTL1", name, r.llcPtl1Mpki, p.llcPtl1, "MPKI");
        });
    }
    return out.take();
}

} // namespace

extern const Figure table2Characterization = {
    "table2_characterization",
    "Table II — benchmark characterization (baseline)", points, reduce};

} // namespace tacbench
