/**
 * @file
 * tacsim-fig: regenerate the paper's tables and figures.
 *
 *   tacsim-fig <name>   one figure (names as `tacsim-fig list` prints)
 *   tacsim-fig all      every figure, over one shared sweep
 *   tacsim-fig list     the figure names and titles
 *
 * Each figure registers its simulation points, the sweep runs them once
 * across the TACSIM_JOBS pool, and each figure then prints a
 * paper-vs-measured table to stdout. Sweep progress and failures go to
 * stderr. TACSIM_JSON_OUT=<path> also writes a tacsim-sweep-v1 report.
 *
 * Exit status: 0 when every point ran, 1 when a point failed (the
 * tables keep the rows the other points support, and each failed key is
 * listed with its error), 2 on a usage error, an unknown figure name,
 * or a figure that cannot register its points.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace tacbench;

namespace {

void
printTable(const std::string &title, const std::vector<ReportRow> &rows)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-28s %-14s %12s %12s %s\n", "series", "benchmark",
                "measured", "paper", "unit");
    for (const ReportRow &r : rows) {
        if (std::isnan(r.paper)) {
            std::printf("%-28s %-14s %12.3f %12s %s\n", r.series.c_str(),
                        r.label.c_str(), r.measured, "-", r.unit.c_str());
        } else {
            std::printf("%-28s %-14s %12.3f %12.3f %s\n", r.series.c_str(),
                        r.label.c_str(), r.measured, r.paper,
                        r.unit.c_str());
        }
    }
    std::fflush(stdout);
}

void
listFigures(std::FILE *out)
{
    for (const Figure *f : figures())
        std::fprintf(out, "  %-28s %s\n", f->name, f->title);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string arg = argc == 2 ? argv[1] : "";
    if (arg == "list") {
        listFigures(stdout);
        return 0;
    }

    std::vector<const Figure *> chosen;
    if (arg == "all") {
        chosen = figures();
    } else if (const Figure *f = findFigure(arg)) {
        chosen.push_back(f);
    } else {
        if (arg.empty())
            std::fprintf(stderr, "usage: tacsim-fig <name>|all|list\n");
        else
            std::fprintf(stderr, "tacsim-fig: unknown figure '%s'\n",
                         arg.c_str());
        std::fprintf(stderr, "figures:\n");
        listFigures(stderr);
        return 2;
    }

    SweepRunner sweep;
    try {
        for (const Figure *f : chosen)
            f->points(sweep);
    } catch (const std::exception &e) {
        // e.g. a TACSIM_MC_CORES machine the topology engine rejects.
        std::fprintf(stderr, "tacsim-fig: cannot register points: %s\n",
                     e.what());
        return 2;
    }
    std::fprintf(stderr, "tacsim: sweeping %zu points on %u threads\n",
                 sweep.points(), sweep.threadCount());
    sweep.run();

    std::vector<ReportRow> allRows;
    for (const Figure *f : chosen) {
        const std::vector<ReportRow> rows = f->reduce(sweep);
        printTable(f->title, rows);
        allRows.insert(allRows.end(), rows.begin(), rows.end());
    }

    bool failed = false;
    for (const SweepOutcome *o : sweep.outcomes()) {
        if (!o->ok) {
            std::fprintf(stderr, "tacsim: sweep point '%s' FAILED: %s\n",
                         o->key.c_str(), o->error.c_str());
            failed = true;
        }
    }
    sweep.writeJsonFromEnv(chosen.size() == 1 ? chosen[0]->title
                                              : "tacsim-fig all",
                           allRows);
    return failed ? 1 : 0;
}
