/**
 * @file
 * Paper Fig. 16: reduction in ROB-head stall cycles caused by STLB
 * misses (translation phase) and by replay requests, with the full
 * scheme.
 *
 * Paper reference points (suite average): translation-stall cycles
 * -28.76%, replay-stall cycles -18.5%, combined -46.7% of the
 * translation+replay stall total; xalancbmk's stalls drop ~77%.
 *
 * fig16_vm reruns the comparison with nested (guest×host) translation:
 * with 2D walks every STLB miss costs several times more cache
 * references, so translation-stall savings should grow.
 */

#include "bench_common.hh"

namespace tacbench {

namespace {

void
points(SweepRunner &sw)
{
    addEach(sw, "base", baselineConfig(), kAllBenchmarks);
    addEach(sw, "prop", proposedConfig(), kAllBenchmarks);
}

/** Stall reduction (%) from @p b0 to @p b1 cycles. */
double
reduction(std::uint64_t b0, std::uint64_t b1)
{
    return b0 ? (1.0 - double(b1) / double(b0)) * 100 : 0.0;
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::uint64_t baseT = 0, baseR = 0, enhT = 0, enhR = 0;
    for (Benchmark b : kAllBenchmarks) {
        const std::string name = benchmarkName(b);
        out.group([&] {
            const RunResult &base = out.at("base/" + name);
            const RunResult &enh = out.at("prop/" + name);

            auto red = [](double b0, double b1) {
                return b0 > 0 ? (1.0 - b1 / b0) * 100 : 0.0;
            };
            const double t = red(double(base.stallT), double(enh.stallT));
            const double r = red(double(base.stallR), double(enh.stallR));
            const double tot = red(double(base.stallT + base.stallR),
                                   double(enh.stallT + enh.stallR));
            out.add("T-stall reduction", name, t, std::nan(""), "%");
            out.add("R-stall reduction", name, r, std::nan(""), "%");
            out.add("T+R stall reduction", name, tot, std::nan(""), "%");
            baseT += base.stallT;
            baseR += base.stallR;
            enhT += enh.stallT;
            enhR += enh.stallR;
        });
    }

    // Suite aggregates are cycle-weighted (total stall cycles across the
    // suite): per-benchmark percentages over tiny T-stall denominators
    // would let one outlier dominate the mean.
    out.add("T-stall reduction", "suite total", reduction(baseT, enhT),
            28.76, "%");
    out.add("R-stall reduction", "suite total", reduction(baseR, enhR),
            18.5, "%");
    out.add("T+R stall reduction", "suite total",
            reduction(baseT + baseR, enhT + enhR), 46.7, "%");
    return out.take();
}

const VmAxis kNested{"nested", 0.0, 0.0, true};

void
vmPoints(SweepRunner &sw)
{
    addEach(sw, "vm/nested/base", withVmAxis(baselineConfig(), kNested),
            kAllBenchmarks);
    addEach(sw, "vm/nested/prop", withVmAxis(proposedConfig(), kNested),
            kAllBenchmarks);
}

std::vector<ReportRow>
vmReduce(SweepRunner &sw)
{
    Rows out(sw);
    out.group([&] {
        std::uint64_t bT = 0, bR = 0, eT = 0, eR = 0;
        for (Benchmark b : kAllBenchmarks) {
            const std::string name = benchmarkName(b);
            const RunResult &base = out.at("vm/nested/base/" + name);
            const RunResult &enh = out.at("vm/nested/prop/" + name);
            bT += base.stallT;
            bR += base.stallR;
            eT += enh.stallT;
            eR += enh.stallR;
        }
        out.add("T-stall reduction", "nested suite", reduction(bT, eT),
                std::nan(""), "%");
        out.add("T+R stall reduction", "nested suite",
                reduction(bT + bR, eT + eR), std::nan(""), "%");
    });
    return out.take();
}

} // namespace

extern const Figure fig16StallReduction = {
    "fig16_stall_reduction",
    "Fig. 16 — ROB stall-cycle reduction (T and R)", points, reduce};

extern const Figure fig16Vm = {
    "fig16_vm",
    "Fig. 16 VM axis — ROB stall-cycle reduction under nested translation",
    vmPoints, vmReduce};

} // namespace tacbench
