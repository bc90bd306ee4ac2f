/**
 * @file
 * Design-choice ablation: where should ATP live? The paper places the
 * trigger at both L2C and LLC and inserts the prefetched replay line
 * with eviction priority (RRPV=3). This bench isolates each choice:
 * trigger level (L2C only / LLC only / both) and the TEMPO backstop,
 * on the most translation-sensitive benchmarks.
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

struct Variant
{
    const char *name;
    bool atpL2, atpLlc, tempo;
};
const Variant kVariants[] = {
    {"T-policies only", false, false, false},
    {"+ATP@L2C", true, false, false},
    {"+ATP@LLC", false, true, false},
    {"+ATP@both", true, true, false},
    {"+TEMPO only", false, false, true},
    {"+ATP@both+TEMPO", true, true, true},
};

const Benchmark kSubset[] = {Benchmark::mcf, Benchmark::canneal,
                             Benchmark::pr, Benchmark::tc};

void
points(SweepRunner &sw)
{
    addEach(sw, "base", baselineConfig(), kSubset);
    for (const Variant &v : kVariants) {
        SystemConfig cfg = baselineConfig();
        applyTranslationAware(cfg, {true, true, false, false, false});
        cfg.atpL2 = v.atpL2;
        cfg.atpLlc = v.atpLlc;
        cfg.tempo = v.tempo;
        cfg.dram.tempo = v.tempo;
        addEach(sw, std::string("ablation_atp/") + v.name, cfg, kSubset);
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::string, std::vector<double>> series;
    for (const Variant &v : kVariants) {
        const std::string pre = std::string("ablation_atp/") + v.name + "/";
        for (Benchmark b : kSubset) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                const double sp =
                    speedup(out.at("base/" + bname), out.at(pre + bname));
                out.add(v.name, bname, (sp - 1) * 100, std::nan(""), "%");
                series[v.name].push_back(sp);
            });
        }
    }

    for (const Variant &v : kVariants)
        out.add(v.name, "geomean", (geomean(series[v.name]) - 1) * 100,
                std::nan(""), "%");
    return out.take();
}

} // namespace

extern const Figure ablationAtp = {
    "ablation_atp", "Ablation — ATP trigger level and TEMPO backstop",
    points, reduce};

} // namespace tacbench
