/**
 * @file
 * Paper Fig. 4: leaf-level translation MPKI at the LLC under LRU,
 * SRRIP, DRRIP, SHiP and Hawkeye.
 *
 * Paper reference points (change vs LRU, suite average): SRRIP -14.72%,
 * DRRIP -27.45%, SHiP -33.3%, Hawkeye +44.1%.
 */

#include <map>

#include "bench_common.hh"

namespace tacbench {

namespace {

const std::pair<const char *, PolicyKind> kPolicies[] = {
    {"LRU", PolicyKind::LRU},       {"SRRIP", PolicyKind::SRRIP},
    {"DRRIP", PolicyKind::DRRIP},   {"SHiP", PolicyKind::SHiP},
    {"Hawkeye", PolicyKind::Hawkeye},
};

void
points(SweepRunner &sw)
{
    for (const auto &[pname, kind] : kPolicies) {
        SystemConfig cfg = baselineConfig();
        cfg.llcPolicy = kind;
        addEach(sw, std::string("fig04/") + pname, cfg, kAllBenchmarks);
    }
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    std::map<std::string, std::vector<double>> series;
    for (const auto &policy : kPolicies) {
        const std::string pname = policy.first;
        for (Benchmark b : kAllBenchmarks) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                const RunResult &r = out.at("fig04/" + pname + "/" + bname);
                out.add(pname, bname, r.llcPtl1Mpki, std::nan(""), "MPKI");
                series[pname].push_back(r.llcPtl1Mpki);
            });
        }
    }

    const double lru = mean(series["LRU"]);
    const struct { const char *n; double paper; } deltas[] = {
        {"SRRIP", -14.72}, {"DRRIP", -27.45}, {"SHiP", -33.3},
        {"Hawkeye", +44.1},
    };
    out.add("LRU", "suite avg MPKI", lru, std::nan(""), "MPKI");
    for (auto d : deltas) {
        const double pct =
            lru > 0 ? (mean(series[d.n]) / lru - 1) * 100 : 0.0;
        out.add(std::string(d.n) + " vs LRU", "suite avg", pct, d.paper,
                "%");
    }
    return out.take();
}

} // namespace

extern const Figure fig04TranslationMpki = {
    "fig04_translation_mpki",
    "Fig. 4 — leaf-translation MPKI at LLC by policy", points, reduce};

} // namespace tacbench
