/**
 * @file
 * Paper Fig. 6: replay-load MPKI at the LLC under the baseline
 * replacement policies.
 *
 * Paper reference point: replacement policy choice has essentially no
 * effect on replay MPKI — replay blocks are dead on arrival, so no
 * recency/prediction scheme can keep the ones that matter.
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
        addEach(sw, std::string("fig06/") + pname, cfg, kAllBenchmarks);
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
                const RunResult &r = out.at("fig06/" + pname + "/" + bname);
                out.add(pname, bname, r.llcReplayMpki, std::nan(""),
                        "MPKI");
                series[pname].push_back(r.llcReplayMpki);
            });
        }
    }

    for (auto &kv : series)
        out.add(kv.first, "suite avg", mean(kv.second), std::nan(""),
                "MPKI (policy-invariant per paper)");
    return out.take();
}

} // namespace

extern const Figure fig06ReplayMpki = {
    "fig06_replay_mpki",
    "Fig. 6 — replay MPKI at LLC by replacement policy", points, reduce};

} // namespace tacbench
