/**
 * @file
 * Paper Fig. 12: leaf-level translation MPKI at the LLC for baseline
 * SHiP, SHiP with the flag-extended signatures only (NewSign), and full
 * T-SHiP (NewSign + RRPV=0 insertion for leaf translations); plus the
 * Hawkeye equivalents.
 *
 * Paper reference point: each step lowers translation MPKI, with T-SHiP
 * pushing the on-chip translation hit rate to ~99%.
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

struct Variant
{
    const char *name;
    PolicyKind kind;
    bool newSig;
    bool tr0;
};
const Variant kVariants[] = {
    {"SHiP", PolicyKind::SHiP, false, false},
    {"SHiP+NewSign", PolicyKind::SHiP, true, false},
    {"T-SHiP", PolicyKind::SHiP, true, true},
    {"Hawkeye", PolicyKind::Hawkeye, false, false},
    {"Hawkeye+NewSign", PolicyKind::Hawkeye, true, false},
    {"T-Hawkeye", PolicyKind::Hawkeye, true, true},
};

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::radii, Benchmark::tc};

void
points(SweepRunner &sw)
{
    for (const Variant &v : kVariants) {
        SystemConfig cfg = baselineConfig();
        cfg.llcPolicy = v.kind;
        cfg.llcOpts.newSignatures = v.newSig;
        cfg.llcOpts.translationRrpv0 = v.tr0;
        addEach(sw, std::string("fig12/") + v.name, cfg, kSubset);
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::string, std::vector<double>> series;
    for (const Variant &v : kVariants) {
        const std::string pre = std::string("fig12/") + v.name + "/";
        for (Benchmark b : kSubset) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                const RunResult &r = out.at(pre + bname);
                out.add(v.name, bname, r.llcPtl1Mpki, std::nan(""), "MPKI");
                series[v.name].push_back(r.llcPtl1Mpki);
            });
        }
    }

    for (auto &kv : series)
        out.add(kv.first, "suite avg", mean(kv.second), std::nan(""),
                "MPKI (paper: SHiP > NewSign > T-SHiP)");
    return out.take();
}

} // namespace

extern const Figure fig12Newsign = {
    "fig12_newsign",
    "Fig. 12 — LLC translation MPKI: signatures and T-insertion", points,
    reduce};

} // namespace tacbench
