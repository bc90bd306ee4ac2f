/**
 * @file
 * Paper §V-B: comparison with CbPred/DpPred-style dead-block management
 * (Mazumdar et al., HPCA'21). Dead-block bypass frees LLC space but
 * does not shorten the stalls of the replay loads themselves, so the
 * paper's scheme beats it.
 *
 * Paper reference point: the proposal improves average performance by
 * a further ~3.1% over CbPred.
 */

#include "bench_common.hh"

namespace tacbench {

namespace {

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::radii, Benchmark::bf};

void
points(SweepRunner &sw)
{
    SystemConfig cb = baselineConfig();
    cb.llcDeadBlock = true;
    addEach(sw, "base", baselineConfig(), kSubset);
    addEach(sw, "cbpred", cb, kSubset);
    addEach(sw, "prop", proposedConfig(), kSubset);
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> cbGain, propGain, propOverCb;
    for (Benchmark b : kSubset) {
        const std::string name = benchmarkName(b);
        out.group([&] {
            const RunResult &base = out.at("base/" + name);
            const double sCb = speedup(base, out.at("cbpred/" + name));
            const double sP = speedup(base, out.at("prop/" + name));
            out.add("CbPred(SHiP)", name, (sCb - 1) * 100, std::nan(""),
                    "%");
            out.add("proposal", name, (sP - 1) * 100, std::nan(""), "%");
            cbGain.push_back(sCb);
            propGain.push_back(sP);
            propOverCb.push_back(sP / sCb);
        });
    }

    out.add("CbPred(SHiP)", "geomean", (geomean(cbGain) - 1) * 100,
            std::nan(""), "%");
    out.add("proposal", "geomean", (geomean(propGain) - 1) * 100,
            std::nan(""), "%");
    out.add("proposal vs CbPred", "geomean",
            (geomean(propOverCb) - 1) * 100, 3.1, "%");
    return out.take();
}

} // namespace

extern const Figure compareCbpred = {
    "compare_cbpred",
    "§V-B — comparison with CbPred/DpPred dead-block management", points,
    reduce};

} // namespace tacbench
