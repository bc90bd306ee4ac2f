/**
 * @file
 * Paper §V-B: comparison with CSALT-style dynamic translation/data
 * cache partitioning (Marathe et al., MICRO'17).
 *
 * Paper reference points: CSALT partitioning adds only ~1% on top of
 * the enhanced SHiP/DRRIP baseline; over a weak LRU baseline its gains
 * are larger (corroborating the CSALT paper).
 */

#include "bench_common.hh"

namespace tacbench {

namespace {

const Benchmark kSubset[] = {Benchmark::canneal, Benchmark::mcf,
                             Benchmark::cc, Benchmark::pr,
                             Benchmark::xalancbmk};

void
points(SweepRunner &sw)
{
    // CSALT on the strong (DRRIP+SHiP) baseline.
    SystemConfig cs = baselineConfig();
    cs.llcCsalt = true;
    // CSALT over a weak LRU baseline (the CSALT paper's own setting,
    // corroborated by §V-B).
    SystemConfig lru = baselineConfig();
    lru.l2Policy = PolicyKind::LRU;
    lru.llcPolicy = PolicyKind::LRU;
    SystemConfig lruCs = lru;
    lruCs.llcCsalt = true;

    addEach(sw, "base", baselineConfig(), kSubset);
    addEach(sw, "csalt/strong", cs, kSubset);
    addEach(sw, "csalt/lru", lru, kSubset);
    addEach(sw, "csalt/lru+csalt", lruCs, kSubset);
    addEach(sw, "prop", proposedConfig(), kSubset);
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::vector<double> csaltOverStrong, csaltOverLru, propGain;
    for (Benchmark b : kSubset) {
        const std::string name = benchmarkName(b);
        out.group([&] {
            const RunResult &base = out.at("base/" + name);
            const double sStrong =
                speedup(base, out.at("csalt/strong/" + name));
            const double sLru = speedup(out.at("csalt/lru/" + name),
                                        out.at("csalt/lru+csalt/" + name));
            const double sProp = speedup(base, out.at("prop/" + name));
            out.add("CSALT over strong base", name, (sStrong - 1) * 100,
                    std::nan(""), "%");
            out.add("CSALT over LRU base", name, (sLru - 1) * 100,
                    std::nan(""), "%");
            out.add("proposal over strong base", name, (sProp - 1) * 100,
                    std::nan(""), "%");
            csaltOverStrong.push_back(sStrong);
            csaltOverLru.push_back(sLru);
            propGain.push_back(sProp);
        });
    }

    out.add("CSALT over strong base", "geomean",
            (geomean(csaltOverStrong) - 1) * 100, 1.0, "%");
    out.add("CSALT over LRU base", "geomean",
            (geomean(csaltOverLru) - 1) * 100, std::nan(""),
            "% (paper: larger than strong)");
    out.add("proposal over strong base", "geomean",
            (geomean(propGain) - 1) * 100, 5.1, "%");
    return out.take();
}

} // namespace

extern const Figure compareCsalt = {"compare_csalt",
                             "§V-B — comparison with CSALT partitioning",
                             points, reduce};

} // namespace tacbench
