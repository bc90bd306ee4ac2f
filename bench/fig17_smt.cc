/**
 * @file
 * Paper Fig. 17: 2-way SMT — two threads share the whole memory
 * hierarchy; the metric is harmonic speedup vs solo runs, compared
 * between the baseline and the full proposal.
 *
 * The mix table is generated combinatorially: all 45 unordered pairs
 * (including self-pairs) of the 9-benchmark suite, with the SMT machine
 * built from the declarative topology string "cores=1,smt=2"
 * (sim/topology.hh): 9 baseline solos (the harmonic denominator) plus
 * both policies for each pair, 99 points. The pairs the paper reports
 * carry its reference numbers.
 *
 * Paper reference points: suite average +6.3%, max +12.6% (pr-cc);
 * radii-bf +6.5%, tc-pr +11.1%, canneal-xalancbmk +3.5%,
 * xalancbmk-xalancbmk +0.5%.
 */

#include <map>
#include <utility>

#include "bench_common.hh"
#include "sim/topology.hh"

namespace tacbench {

namespace {

using B = Benchmark;

/** The paper's published per-pair gains (percent), keyed t0-t1. */
double
paperGain(B t0, B t1)
{
    static const std::map<std::pair<B, B>, double> known = {
        {{B::xalancbmk, B::xalancbmk}, 0.5},
        {{B::canneal, B::xalancbmk}, 3.5},
        {{B::radii, B::bf}, 6.5},
        {{B::tc, B::pr}, 11.1},
        {{B::pr, B::cc}, 12.6},
    };
    // Pairs are generated in suite order; the paper lists some of them
    // the other way round, so look up both orientations.
    auto it = known.find({t0, t1});
    if (it == known.end())
        it = known.find({t1, t0});
    return it == known.end() ? std::nan("") : it->second;
}

std::string
pairName(B t0, B t1)
{
    return benchmarkName(t0) + "-" + benchmarkName(t1);
}

/** Call @p fn(t0, t1) for every unordered pair of the suite, self-pairs
 *  included, in suite order. */
template <typename Fn>
void
forEachPair(Fn &&fn)
{
    for (std::size_t i = 0; i < kAllBenchmarks.size(); ++i)
        for (std::size_t j = i; j < kAllBenchmarks.size(); ++j)
            fn(kAllBenchmarks[i], kAllBenchmarks[j]);
}

void
points(SweepRunner &sw)
{
    const SystemConfig smtBase =
        configFromTopology("cores=1,smt=2", baselineConfig());
    const SystemConfig smtEnh = withProposal(smtBase);

    addEach(sw, "base", baselineConfig(), kAllBenchmarks);
    forEachPair([&](B t0, B t1) {
        sw.addMix("smt/base/" + pairName(t0, t1), smtBase, {t0, t1});
        sw.addMix("smt/enh/" + pairName(t0, t1), smtEnh, {t0, t1});
    });
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> gains;
    forEachPair([&](B t0, B t1) {
        const std::string name = pairName(t0, t1);
        out.group([&] {
            const std::vector<double> soloIpc = {
                out.at("base/" + benchmarkName(t0)).ipc,
                out.at("base/" + benchmarkName(t1)).ipc};
            const double hBase =
                harmonicSpeedup(soloIpc, out.at("smt/base/" + name));
            const double hEnh =
                harmonicSpeedup(soloIpc, out.at("smt/enh/" + name));
            const double gain = hBase > 0 ? (hEnh / hBase - 1) * 100 : 0.0;
            out.add("SMT harmonic-speedup gain", name, gain,
                    paperGain(t0, t1), "%");
            gains.push_back(gain);
        });
    });

    out.add("SMT harmonic-speedup gain", "pair avg", mean(gains), 6.3, "%");
    return out.take();
}

} // namespace

extern const Figure fig17Smt = {"fig17_smt",
                         "Fig. 17 — 2-way SMT speedup, all 45 pairs",
                         points, reduce};

} // namespace tacbench
