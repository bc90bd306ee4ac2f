/**
 * @file
 * Design-choice ablation: page-walker provisioning. Sweeps the number
 * of concurrent walkers and the PSC sizes — the substrate knobs the
 * paper's Table I fixes (4-ish walkers; PSCL5/4/3/2 = 2/4/8/32) — to
 * show the evaluation is not an artifact of an over- or under-
 * provisioned MMU.
 */

#include <array>
#include <utility>

#include "bench_common.hh"

namespace tacbench {

namespace {

const Benchmark kSubset[] = {Benchmark::mcf, Benchmark::pr, Benchmark::cc};

/** The swept machines, each named by its table series: walker counts
 *  1-8, then PSCs none / Table I / doubled. */
std::vector<std::pair<std::string, SystemConfig>>
variants()
{
    std::vector<std::pair<std::string, SystemConfig>> out;
    for (unsigned walkers : {1u, 2u, 4u, 8u}) {
        SystemConfig cfg = baselineConfig();
        cfg.ptw.maxConcurrentWalks = walkers;
        out.emplace_back("walkers=" + std::to_string(walkers), cfg);
    }
    const std::pair<const char *, std::array<std::uint32_t, 4>> pscs[] = {
        {"psc=off", {1, 1, 1, 1}}, // 1-entry: effectively useless
        {"psc=TableI", {32, 8, 4, 2}},
        {"psc=2x", {64, 16, 8, 4}},
    };
    for (const auto &[name, sizes] : pscs) {
        SystemConfig cfg = baselineConfig();
        cfg.ptw.pscSizes = sizes;
        out.emplace_back(name, cfg);
    }
    return out;
}

void
points(SweepRunner &sw)
{
    for (const auto &[series, cfg] : variants())
        addEach(sw, "ablation_walker/" + series, cfg, kSubset);
}

std::vector<ReportRow>
reduce(SweepRunner &sw)
{
    Rows out(sw);
    for (const auto &variant : variants()) {
        const std::string &series = variant.first;
        for (Benchmark b : kSubset) {
            const std::string bname = benchmarkName(b);
            out.group([&] {
                out.add(series, bname,
                        out.at("ablation_walker/" + series + "/" + bname).ipc,
                        std::nan(""), "IPC");
            });
        }
    }
    return out.take();
}

} // namespace

extern const Figure ablationWalker = {
    "ablation_walker", "Ablation — page-walker concurrency and PSC sizing",
    points, reduce};

} // namespace tacbench
