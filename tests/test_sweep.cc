/**
 * @file
 * Tests for the parallel sweep runner: determinism under parallelism
 * (parallel results identical to a serial run), per-job exception
 * capture, registration-order reporting, memoization, TACSIM_JOBS
 * parsing and the JSON report writer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/sweep.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 20000;
constexpr std::uint64_t kWarm = 5000;

/** Register the same deterministic 4-point sweep on @p sw. */
void
addPoints(SweepRunner &sw)
{
    const Benchmark bs[] = {Benchmark::pr, Benchmark::mcf,
                            Benchmark::canneal, Benchmark::xalancbmk};
    int i = 0;
    for (Benchmark b : bs) {
        SystemConfig cfg;
        cfg.seed = 7 + i;
        sw.add("p" + std::to_string(i), cfg, b, kInstr, kWarm);
        ++i;
    }
}

/** Field-by-field identity of everything a report could consume. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.stlbMpki, b.stlbMpki);
    EXPECT_EQ(a.l2ReplayMpki, b.l2ReplayMpki);
    EXPECT_EQ(a.llcReplayMpki, b.llcReplayMpki);
    EXPECT_EQ(a.llcPtl1Mpki, b.llcPtl1Mpki);
    EXPECT_EQ(a.stallT, b.stallT);
    EXPECT_EQ(a.stallR, b.stallR);
    EXPECT_EQ(a.stallN, b.stallN);
    EXPECT_EQ(a.threadCycles, b.threadCycles);
    EXPECT_EQ(a.threadInstructions, b.threadInstructions);
}

TEST(Sweep, ParallelMatchesSerial)
{
    SweepRunner serial(1);
    SweepRunner parallel(2);
    addPoints(serial);
    addPoints(parallel);
    serial.run();
    parallel.run();
    for (int i = 0; i < 4; ++i) {
        const std::string key = "p" + std::to_string(i);
        SCOPED_TRACE(key);
        expectSameResult(serial.result(key), parallel.result(key));
    }
}

TEST(Sweep, ThrowingJobIsReportedWithoutAbortingTheSweep)
{
    SweepRunner sw(2);
    sw.addCustom("boom", []() -> RunResult {
        throw std::runtime_error("diverged");
    });
    SystemConfig cfg;
    sw.add("ok", cfg, Benchmark::pr, kInstr, kWarm);
    sw.run();

    const SweepOutcome *bad = sw.outcome("boom");
    ASSERT_NE(bad, nullptr);
    EXPECT_FALSE(bad->ok);
    EXPECT_NE(bad->error.find("diverged"), std::string::npos);
    EXPECT_THROW(sw.result("boom"), std::runtime_error);

    const SweepOutcome *good = sw.outcome("ok");
    ASSERT_NE(good, nullptr);
    EXPECT_TRUE(good->ok);
    EXPECT_GT(sw.result("ok").instructions, 0u);
}

TEST(Sweep, OutcomesFollowRegistrationOrder)
{
    SweepRunner sw(4);
    addPoints(sw);
    sw.run();
    const auto all = sw.outcomes();
    ASSERT_EQ(all.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(all[i]->key, "p" + std::to_string(i));
}

TEST(Sweep, AddIsMemoizedAndResultBeforeRunThrows)
{
    SweepRunner sw(2);
    int calls = 0;
    sw.addCustom("job", [&calls] {
        ++calls;
        RunResult r;
        r.benchmark = "stub";
        r.instructions = 1;
        return r;
    });
    sw.addCustom("job", [&calls] { // duplicate key: first wins
        ++calls;
        return RunResult{};
    });
    EXPECT_EQ(sw.points(), 1u);
    // Results exist only after run(): reading one early throws and
    // runs nothing.
    EXPECT_THROW(sw.result("job"), std::runtime_error);
    EXPECT_EQ(calls, 0);
    sw.run();
    sw.run(); // already done: no re-execution
    EXPECT_EQ(sw.result("job").benchmark, "stub");
    EXPECT_EQ(sw.result("job").instructions, 1u);
    EXPECT_EQ(calls, 1);
    EXPECT_THROW(sw.result("unknown"), std::runtime_error);
}

TEST(Sweep, DefaultJobsReadsEnv)
{
    ::setenv("TACSIM_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    ::setenv("TACSIM_JOBS", "0", 1); // invalid: falls back to hardware
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
    ::unsetenv("TACSIM_JOBS");
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
}

TEST(Sweep, JsonReportIsWrittenAndWellFormed)
{
    SweepRunner sw(2);
    sw.addCustom("good \"quoted\"", [] {
        RunResult r;
        r.benchmark = "stub";
        r.instructions = 5;
        r.cycles = 10;
        r.ipc = 0.5;
        return r;
    });
    sw.addCustom("bad", []() -> RunResult {
        throw std::runtime_error("exploded \"here\"");
    });
    sw.run();

    std::vector<ReportRow> rows;
    rows.push_back({"series-a", "label-1", 1.5, 2.5, "%"});
    rows.push_back({"series-b", "label-2", 0.25, std::nan(""), "IPC"});

    const std::string path = ::testing::TempDir() + "tacsim_sweep.json";
    ASSERT_TRUE(sw.writeJson(path, "unit \"test\"", rows));

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();

    EXPECT_NE(text.find("\"schema\": \"tacsim-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"title\": \"unit \\\"test\\\"\""),
              std::string::npos);
    EXPECT_NE(text.find("\"measured\": 1.5"), std::string::npos);
    // NaN paper values must serialize as null, never bare nan.
    EXPECT_NE(text.find("\"paper\": null"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    // Both runs present, with the failure captured and escaped.
    EXPECT_NE(text.find("\"key\": \"good \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(text.find("exploded \\\"here\\\""), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
    std::remove(path.c_str());
}

TEST(Sweep, ReRegisteringANameForADifferentPointThrows)
{
    // Regression: the memo used to key on the registration name alone,
    // so this pattern silently returned the first point's result for
    // the second configuration.
    SweepRunner sw(1);
    SystemConfig cfg;
    sw.addSpec("p", cfg, "mcf", kInstr, kWarm);
    SystemConfig other;
    other.stlbEntries = cfg.stlbEntries * 2;
    EXPECT_THROW(sw.addSpec("p", other, "mcf", kInstr, kWarm),
                 std::runtime_error);
    // Identical re-registration stays a memoized no-op.
    sw.addSpec("p", cfg, "mcf", kInstr, kWarm);
    EXPECT_EQ(sw.points(), 1u);
}

TEST(Sweep, SamePointUnderTwoNamesRunsOnce)
{
    SweepRunner sw(2);
    SystemConfig cfg;
    sw.addSpec("first", cfg, "mcf", kInstr, kWarm);
    sw.addSpec("alias", cfg, "mcf", kInstr, kWarm);
    EXPECT_EQ(sw.points(), 1u);
    sw.run();
    // Both names resolve to the one result.
    expectSameResult(sw.result("first"), sw.result("alias"));
    const SweepOutcome *o = sw.outcome("alias");
    ASSERT_NE(o, nullptr);
    EXPECT_TRUE(o->ok);
    EXPECT_EQ(o->pointKey.size(), 64u);
}

TEST(Sweep, OutcomesCarryThePointKey)
{
    SweepRunner sw(1);
    SystemConfig cfg;
    sw.addSpec("spec-point", cfg, "mcf", kInstr, kWarm);
    sw.addMix("mix-point", cfg, {Benchmark::mcf}, kInstr, kWarm);
    sw.addCustom("custom-point", [] { return RunResult{}; });
    sw.run();

    const SweepOutcome *spec = sw.outcome("spec-point");
    const SweepOutcome *mix = sw.outcome("mix-point");
    const SweepOutcome *custom = sw.outcome("custom-point");
    ASSERT_NE(spec, nullptr);
    ASSERT_NE(mix, nullptr);
    ASSERT_NE(custom, nullptr);
    EXPECT_EQ(spec->pointKey.size(), 64u);
    EXPECT_EQ(mix->pointKey.size(), 64u);
    // A single-benchmark mix and the same benchmark as a spec are the
    // same simulation — one canonical identity.
    EXPECT_EQ(spec->pointKey, mix->pointKey);
    EXPECT_EQ(sw.points(), 2u); // the mix aliased the spec point
    // Custom jobs have no canonical hash and never dedup.
    EXPECT_TRUE(custom->pointKey.empty());

    const std::string path =
        ::testing::TempDir() + "tacsim_sweep_pk.json";
    ASSERT_TRUE(sw.writeJson(path, "point keys", {}));
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"point_key\": \"" + spec->pointKey +
                            "\""),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"cached\": false"), std::string::npos);
    std::remove(path.c_str());
}

/** In-memory SweepCache double: deterministic, no disk. */
class MemoryCache : public SweepCache
{
  public:
    bool lookup(const std::string &pointKey, RunResult &out) override
    {
        ++lookups;
        auto it = store_.find(pointKey);
        if (it == store_.end())
            return false;
        out = it->second;
        return true;
    }

    void store(const std::string &pointKey, const RunResult &result,
               const std::string &statsDump) override
    {
        ++stores;
        lastDump = statsDump;
        store_[pointKey] = result;
    }

    int lookups = 0;
    int stores = 0;
    std::string lastDump;

  private:
    std::map<std::string, RunResult> store_;
};

TEST(Sweep, AttachedCacheServesRepeatPointsWithoutSimulating)
{
    MemoryCache cache;
    SystemConfig cfg;

    SweepRunner first(1);
    first.attachCache(&cache);
    first.addSpec("p", cfg, "mcf", kInstr, kWarm);
    first.run();
    const SweepOutcome *cold = first.outcome("p");
    ASSERT_NE(cold, nullptr);
    EXPECT_TRUE(cold->ok);
    EXPECT_FALSE(cold->cached);
    EXPECT_EQ(cache.stores, 1);
    EXPECT_FALSE(cache.lastDump.empty());

    // A second runner over the same point is served from the cache:
    // no new store, identical result, cached flagged in the outcome.
    SweepRunner second(1);
    second.attachCache(&cache);
    second.addSpec("p", cfg, "mcf", kInstr, kWarm);
    second.run();
    const SweepOutcome *warm = second.outcome("p");
    ASSERT_NE(warm, nullptr);
    EXPECT_TRUE(warm->ok);
    EXPECT_TRUE(warm->cached);
    EXPECT_EQ(cache.stores, 1);
    expectSameResult(cold->result, warm->result);

    // The JSON report records the hit.
    const std::string path =
        ::testing::TempDir() + "tacsim_sweep_cached.json";
    ASSERT_TRUE(second.writeJson(path, "cached", {}));
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_NE(ss.str().find("\"cached\": true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Sweep, MixPointsRunThroughThePool)
{
    SweepRunner sw(2);
    SystemConfig cfg;
    cfg.numCores = 2;
    sw.addMix("mix", cfg, {Benchmark::pr, Benchmark::mcf}, kInstr, kWarm);
    sw.run();
    const RunResult &r = sw.result("mix");
    EXPECT_EQ(r.benchmark, "pr-mcf");
    EXPECT_EQ(r.threadCycles.size(), 2u);
}

} // namespace
} // namespace tacsim
