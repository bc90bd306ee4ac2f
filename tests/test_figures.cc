/**
 * @file
 * Tests for the figure registry behind tacsim-fig: the registry matches
 * the DESIGN.md §4 experiment index, every figure's reduce() reads only
 * points its own points() registered, tables do not depend on the sweep
 * pool size, and a failed point drops only the rows that read it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace tacbench {
namespace {

/** Set the default budgets to a few thousand instructions for one
 *  test, restoring the previous values after. */
class TinyBudget
{
  public:
    TinyBudget() : instr_(save("TACSIM_INSTRUCTIONS")),
                   warm_(save("TACSIM_WARMUP"))
    {
        ::setenv("TACSIM_INSTRUCTIONS", "4000", 1);
        ::setenv("TACSIM_WARMUP", "1000", 1);
    }
    ~TinyBudget()
    {
        restore("TACSIM_INSTRUCTIONS", instr_);
        restore("TACSIM_WARMUP", warm_);
    }
    TinyBudget(const TinyBudget &) = delete;
    TinyBudget &operator=(const TinyBudget &) = delete;

  private:
    static std::string
    save(const char *name)
    {
        const char *v = std::getenv(name);
        return v ? v : "";
    }
    static void
    restore(const char *name, const std::string &v)
    {
        if (v.empty())
            ::unsetenv(name);
        else
            ::setenv(name, v.c_str(), 1);
    }

    std::string instr_, warm_;
};

/** Register, run and reduce @p name on a runner of @p jobs threads. */
std::vector<ReportRow>
runFigure(const std::string &name, unsigned jobs)
{
    const Figure *f = findFigure(name);
    if (!f)
        throw std::invalid_argument("no figure " + name);
    SweepRunner sw(jobs);
    f->points(sw);
    sw.run();
    for (const SweepOutcome *o : sw.outcomes())
        EXPECT_TRUE(o->ok) << name << ": " << o->key << ": " << o->error;
    return f->reduce(sw);
}

/** Row identity, NaN paper values included. */
void
expectSameRows(const std::vector<ReportRow> &a,
               const std::vector<ReportRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].series, b[i].series) << "row " << i;
        EXPECT_EQ(a[i].label, b[i].label) << "row " << i;
        EXPECT_EQ(a[i].measured, b[i].measured) << "row " << i;
        EXPECT_EQ(std::isnan(a[i].paper), std::isnan(b[i].paper))
            << "row " << i;
        if (!std::isnan(a[i].paper)) {
            EXPECT_EQ(a[i].paper, b[i].paper) << "row " << i;
        }
        EXPECT_EQ(a[i].unit, b[i].unit) << "row " << i;
    }
}

TEST(Figures, NamesAreUniqueAndMatchTheDesignIndex)
{
    std::set<std::string> names;
    for (const Figure *f : figures()) {
        EXPECT_TRUE(names.insert(f->name).second)
            << "duplicate figure " << f->name;
        EXPECT_EQ(findFigure(f->name), f);
    }
    EXPECT_EQ(findFigure("no_such_figure"), nullptr);

    // Every `tacsim-fig <name>` of the §4 table is a registry entry,
    // and every registry entry has a row there.
    std::ifstream in(TACSIM_DESIGN_MD);
    ASSERT_TRUE(in) << "cannot open " << TACSIM_DESIGN_MD;
    std::string line;
    bool inIndex = false;
    std::set<std::string> indexed;
    const std::regex target("tacsim-fig ([a-z0-9_]+)");
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            inIndex = line.rfind("## 4. ", 0) == 0;
        if (!inIndex || line.rfind("| ", 0) != 0)
            continue;
        for (std::sregex_iterator it(line.begin(), line.end(), target), end;
             it != end; ++it) {
            const std::string name = (*it)[1];
            EXPECT_TRUE(names.count(name))
                << "DESIGN.md §4 names unknown figure " << name;
            indexed.insert(name);
        }
    }
    for (const std::string &name : names)
        EXPECT_TRUE(indexed.count(name))
            << name << " has no row in the DESIGN.md §4 table";
}

class FigureReduce : public testing::TestWithParam<std::string>
{};

TEST_P(FigureReduce, ReadsOnlyItsOwnPointsAtATinyBudget)
{
    // A runner of its own: a reduce() that reads a point only another
    // figure registers throws std::logic_error here.
    TinyBudget budget;
    const std::vector<ReportRow> rows = runFigure(GetParam(), 2);
    EXPECT_FALSE(rows.empty());
}

std::vector<std::string>
figuresExceptMulticore()
{
    // multicore_mixes simulates 8-64 core machines; CI's
    // multicore-smoke lane runs it instead.
    std::vector<std::string> out;
    for (const Figure *f : figures())
        if (std::string(f->name) != "multicore_mixes")
            out.emplace_back(f->name);
    return out;
}

INSTANTIATE_TEST_SUITE_P(AllFigures, FigureReduce,
                         testing::ValuesIn(figuresExceptMulticore()),
                         [](const testing::TestParamInfo<std::string> &p) {
                             return p.param;
                         });

TEST(Figures, RowsDoNotDependOnThePoolSize)
{
    // One figure of each kind of point: variant points beside the shared
    // base points (fig02), custom profiled points (fig05), and three
    // configs per benchmark (fig10).
    TinyBudget budget;
    for (const char *name : {"fig02_ideal_caches", "fig05_recall_translation",
                             "fig10_rrpv0_ablation"}) {
        SCOPED_TRACE(name);
        const std::vector<ReportRow> serial = runFigure(name, 1);
        const std::vector<ReportRow> pooled = runFigure(name, 4);
        expectSameRows(serial, pooled);
    }
}

TEST(Figures, FailedPointDropsOnlyTheGroupsThatReadIt)
{
    SweepRunner sw(2);
    sw.addCustom("good", [] {
        RunResult r;
        r.ipc = 1.5;
        return r;
    });
    sw.addCustom("bad", []() -> RunResult {
        throw std::runtime_error("diverged");
    });
    Rows out(sw);
    EXPECT_THROW(out.at("good"), std::logic_error); // not run yet
    sw.run();

    out.group([&] { out.add("s", "good", out.at("good").ipc); });
    out.group([&] {
        out.add("s", "partial", 1.0); // dropped with its group
        out.add("s", "bad", out.at("bad").ipc);
    });
    EXPECT_THROW(out.group([&] { out.at("unregistered"); }),
                 std::logic_error);
    const std::vector<ReportRow> rows = out.take();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].label, "good");
    EXPECT_EQ(rows[0].measured, 1.5);
}

} // namespace
} // namespace tacbench
