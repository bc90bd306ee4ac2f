/**
 * @file
 * Paper Fig. 14 — the headline result: speedup over the DRRIP+SHiP
 * baseline as the enhancements stack up: T-DRRIP, +T-SHiP, +ATP,
 * +TEMPO.
 *
 * Paper reference points (suite average): T-DRRIP +0.5%, +T-SHiP +2.9%,
 * +ATP +4.8%, +TEMPO +5.1% (max +10.6%); >98% of leaf translations hit
 * on-chip with the full scheme.
 *
 * fig14_vm reruns the full scheme against the baseline under the VM
 * axes: does it still pay off when huge pages shrink the walk burden,
 * or when nesting multiplies it?
 */

#include <algorithm>
#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

struct Step
{
    const char *name;
    double paperAvg;
    TranslationAwareOptions opts;
};

const Step kSteps[] = {
    {"T-DRRIP", 0.5, {true, false, false, false, false}},
    {"+T-SHiP", 2.9, {true, true, false, false, false}},
    {"+ATP", 4.8, {true, true, false, true, false}},
    {"+TEMPO", 5.1, {true, true, false, true, true}},
};

SystemConfig
stepConfig(const Step &s)
{
    SystemConfig cfg = baselineConfig();
    applyTranslationAware(cfg, s.opts);
    return cfg;
}

void
points(SweepRunner &sw)
{
    addEach(sw, "base", baselineConfig(), kAllBenchmarks);
    for (const Step &s : kSteps)
        addEach(sw, std::string("fig14/") + s.name, stepConfig(s),
                kAllBenchmarks);
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::string, std::vector<double>> series;
    double onChip = 0;
    for (const Step &s : kSteps) {
        const std::string pre = std::string("fig14/") + s.name + "/";
        for (Benchmark b : kAllBenchmarks) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                const RunResult &base = out.at("base/" + bname);
                const RunResult &r = out.at(pre + bname);
                const double sp = speedup(base, r);
                out.add(s.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[s.name].push_back(sp);
                if (s.opts.tempo)
                    onChip += r.leafOnChipHitRate;
            });
        }
    }

    for (const Step &s : kSteps) {
        const auto &v = series[s.name];
        out.add(s.name, "geomean", (geomean(v) - 1) * 100, s.paperAvg, "%");
        double mx = 0;
        for (double x : v)
            mx = std::max(mx, (x - 1) * 100);
        if (std::string(s.name) == "+TEMPO")
            out.add(s.name, "max", mx, 10.6, "%");
    }
    out.add("leaf on-chip hit rate", "suite avg", onChip / 9.0 * 100, 98.0,
            "%");
    return out.take();
}

const VmAxis kVmAxes[] = {
    {"thp50", 0.5, 0.0, false},
    {"thp", 1.0, 0.0, false},
    {"nested", 0.0, 0.0, true},
};

void
vmPoints(SweepRunner &sw)
{
    for (const VmAxis &a : kVmAxes) {
        const std::string pre = std::string("vm/") + a.name;
        addEach(sw, pre + "/base", withVmAxis(baselineConfig(), a),
                kAllBenchmarks);
        addEach(sw, pre + "/prop", withVmAxis(proposedConfig(), a),
                kAllBenchmarks);
    }
}

std::vector<ReportRow>
vmReduce(SweepRunner &sw)
{
    Rows out(sw);
    for (const VmAxis &a : kVmAxes) {
        const std::string pre = std::string("vm/") + a.name;
        out.group([&] {
            std::vector<double> sp;
            double mpki = 0;
            for (Benchmark b : kAllBenchmarks) {
                const std::string bname = benchmarkName(b);
                const RunResult &base = out.at(pre + "/base/" + bname);
                const RunResult &prop = out.at(pre + "/prop/" + bname);
                sp.push_back(speedup(base, prop));
                mpki += base.stlbMpki;
            }
            out.add(std::string("vm:") + a.name, "geomean",
                    (geomean(sp) - 1) * 100, std::nan(""), "%");
            out.add(std::string("vm:") + a.name, "base STLB MPKI",
                    mpki / 9.0, std::nan(""), "");
        });
    }
    return out.take();
}

} // namespace

extern const Figure fig14Speedup = {
    "fig14_speedup", "Fig. 14 — speedup with the paper's enhancements",
    points, reduce};

extern const Figure fig14Vm = {
    "fig14_vm",
    "Fig. 14 VM axes — proposal speedup under THP and nested translation",
    vmPoints, vmReduce};

} // namespace tacbench
