/**
 * @file
 * Unit tests for the OoO core model: retire bounds, dependence
 * serialization, stall attribution (the paper's T/R/N split), store
 * semantics and the cycle-skip contract.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/serialize.hh"
#include "core/core.hh"
#include "test_util.hh"
#include "vm/page_table.hh"

namespace tacsim {
namespace {

/** Scriptable workload: replays a fixed list of records, then NonMem. */
class ScriptWorkload : public Workload
{
  public:
    TraceRecord
    next() override
    {
        if (script.empty()) {
            TraceRecord t;
            t.ip = 0x400000;
            return t;
        }
        TraceRecord t = script.front();
        script.pop_front();
        return t;
    }

    std::string name() const override { return "script"; }
    Addr footprint() const override { return 1 << 20; }

    std::deque<TraceRecord> script;
};

TraceRecord
loadRec(Addr vaddr, bool dep = false, Addr ip = 0x400010)
{
    TraceRecord t;
    t.ip = ip;
    t.kind = TraceRecord::Kind::Load;
    t.vaddr = vaddr;
    t.dependsOnPrevLoad = dep;
    return t;
}

TraceRecord
storeRec(Addr vaddr, bool dep = false)
{
    TraceRecord t;
    t.ip = 0x400020;
    t.kind = TraceRecord::Kind::Store;
    t.vaddr = vaddr;
    t.dependsOnPrevLoad = dep;
    return t;
}

/** Data requests (loads and stores) the memory saw, in arrival order. */
std::vector<MemRequestPtr>
dataRequests(const test::MockMemory &mem)
{
    std::vector<MemRequestPtr> out;
    for (const auto &r : mem.requests)
        if (r->isDemand())
            out.push_back(r);
    return out;
}

/** Queue a walking load at 0x5000 and four accesses to its page that
 *  all depend on it: stores do not become the "previous load", so the
 *  three stores and the final load each park on the same producer. */
void
scriptFanOut(std::deque<TraceRecord> &script)
{
    script.push_back(loadRec(0x5000));
    script.push_back(storeRec(0x5040, /*dep=*/true));
    script.push_back(storeRec(0x5080, /*dep=*/true));
    script.push_back(storeRec(0x50c0, /*dep=*/true));
    script.push_back(loadRec(0x5100, /*dep=*/true));
}

/** The fan-out's dependents reach memory after the producer's data
 *  returns, and in dispatch order; @p data is the fan-out's requests. */
void
expectFanOutInDispatchOrder(const std::vector<MemRequestPtr> &data)
{
    ASSERT_EQ(data.size(), 5u);
    EXPECT_EQ(data[0]->vaddr, 0x5000u);
    const Addr order[] = {0x5040, 0x5080, 0x50c0, 0x5100};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(data[i + 1]->vaddr, order[i]) << "dependent " << i;
        EXPECT_GE(data[i + 1]->issuedAt, data[0]->completedAt)
            << "dependent " << i << " issued before its producer's data";
    }
}

struct CoreEnv
{
    EventQueue eq;
    test::MockMemory mem{eq, 60};
    FrameAllocator fa;
    PageTable pt{fa};
    Tlb dtlb{"dtlb", 64, 4, 1};
    Tlb stlb{"stlb", 2048, 16, 8};
    PageTableWalker ptw{eq, &mem};
    ScriptWorkload wl;

    CoreEnv()
    {
        ptw.addAddressSpace(0, &pt);
        ptw.setStlb(&stlb);
    }

    Core
    makeCore(CoreParams p = {})
    {
        return Core(p, eq, wl, dtlb, stlb, ptw, mem);
    }

    /** Tick the core from the current cycle until it retires >= n
     *  instructions (bounded); returns the cycles ticked. */
    Cycle
    runUntil(Core &core, std::uint64_t n, Cycle maxCycles = 200000)
    {
        const Cycle start = eq.now();
        Cycle c = 0;
        while (core.retired() < n && c < maxCycles) {
            eq.advanceTo(start + c);
            core.tick();
            ++c;
        }
        return c;
    }
};

struct CoreTest : ::testing::Test, CoreEnv
{};

TEST_F(CoreTest, NonMemIpcBoundedByRetireWidth)
{
    auto core = makeCore();
    const Cycle cycles = runUntil(core, 4000);
    const double ipc = 4000.0 / double(cycles);
    EXPECT_LE(ipc, 4.05);
    EXPECT_GT(ipc, 3.5); // non-mem stream should saturate retire width
}

TEST_F(CoreTest, LoadsCompleteAndRetire)
{
    for (int i = 0; i < 10; ++i)
        wl.script.push_back(loadRec(Addr(0x1000) + Addr(i) * 0x40));
    auto core = makeCore();
    runUntil(core, 20);
    EXPECT_EQ(core.stats().loads, 10u);
    EXPECT_EQ(mem.countOf(ReqType::Load), 10u);
}

TEST_F(CoreTest, DependentChainSerializes)
{
    // Independent loads overlap; dependent ones serialize, so the same
    // count of loads takes much longer.
    for (int i = 0; i < 16; ++i)
        wl.script.push_back(loadRec(Addr(0x100000) + Addr(i) * 0x40));
    auto indep = makeCore();
    const Cycle tIndep = runUntil(indep, 17);

    // Fresh environment for the dependent variant.
    CoreEnv env2;
    for (int i = 0; i < 16; ++i)
        env2.wl.script.push_back(
            loadRec(Addr(0x100000) + Addr(i) * 0x40, /*dep=*/true));
    auto dep = env2.makeCore();
    const Cycle tDep = env2.runUntil(dep, 17);

    EXPECT_GT(tDep, tIndep + 60 * 8); // at least ~8 serialized misses
}

TEST_F(CoreTest, DependentsOfOneProducerIssueInDispatchOrder)
{
    scriptFanOut(wl.script);
    auto core = makeCore();
    runUntil(core, 5);
    EXPECT_EQ(core.stats().loads, 2u);
    EXPECT_EQ(core.stats().stores, 3u);
    expectFanOutInDispatchOrder(dataRequests(mem));
}

TEST_F(CoreTest, DependentChainSurvivesRobWrap)
{
    // Six non-memory ops fill ring slots 0-5 and retire, so the producer
    // lands in slot 6 and its dependents in slots 7, 0, 1 and 2.
    CoreParams p;
    p.robSize = 8;
    for (int i = 0; i < 6; ++i)
        wl.script.push_back(TraceRecord{});
    scriptFanOut(wl.script);
    auto core = makeCore(p);
    runUntil(core, 11);
    EXPECT_EQ(core.stats().loads, 2u);
    EXPECT_EQ(core.stats().stores, 3u);
    expectFanOutInDispatchOrder(dataRequests(mem));
}

TEST_F(CoreTest, RestoreAtUnalignedHeadRunsDependentsAcrossWrap)
{
    CoreParams p;
    p.robSize = 8;
    // Checkpoint a drained core whose head sequence number is not a
    // multiple of the ROB size, then restore it into a fresh core: its
    // head starts mid-ring.
    std::vector<std::uint8_t> ckpt;
    std::uint64_t head = 0;
    {
        auto before = makeCore(p);
        runUntil(before, 9);
        before.beginDrain();
        while (!before.robEmpty())
            before.tick();
        head = before.retired();
        SerialWriter sw;
        before.saveState(sw);
        ckpt = sw.bytes();
    }
    ASSERT_NE(head % p.robSize, 0u);

    auto core = makeCore(p);
    SerialReader sr(ckpt);
    core.loadState(sr);

    // Pad so the producer takes the last ring slot and its four
    // dependents wrap into slots 0-3; then a six-load pointer chase
    // wraps the ring again.
    for (std::uint64_t s = head % p.robSize; s + 1 < p.robSize; ++s)
        wl.script.push_back(TraceRecord{});
    scriptFanOut(wl.script);
    for (int i = 0; i < 6; ++i)
        wl.script.push_back(loadRec(Addr(0x9000) + Addr(i) * 0x40,
                                    /*dep=*/true));
    runUntil(core, p.robSize + 6);
    EXPECT_EQ(core.stats().loads, 2u + 6u);
    EXPECT_EQ(core.stats().stores, 3u);

    const auto data = dataRequests(mem);
    ASSERT_EQ(data.size(), 5u + 6u);
    expectFanOutInDispatchOrder({data.begin(), data.begin() + 5});
    // Each chase load waits for the load before it (the first for the
    // fan-out's final load, data[4]).
    for (std::size_t i = 5; i < data.size(); ++i) {
        EXPECT_EQ(data[i]->vaddr, Addr(0x9000) + Addr(i - 5) * 0x40);
        EXPECT_GE(data[i]->issuedAt, data[i - 1]->completedAt)
            << "chase load " << i - 5 << " issued before its producer";
    }
}

TEST_F(CoreTest, DependentOfCompletedProducerIssuesAtDispatch)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    core.tick(); // dispatch the load (and five non-memory ops)
    test::drain(eq); // the load completes but has not retired
    ASSERT_FALSE(core.robEmpty());

    wl.script.push_back(storeRec(0x5040, /*dep=*/true));
    core.tick();
    test::drain(eq);
    auto data = dataRequests(mem);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data[1]->vaddr, 0x5040u);

    // A later producer's completion must not issue it a second time.
    wl.script.push_back(loadRec(0x5080));
    wl.script.push_back(storeRec(0x50c0, /*dep=*/true));
    runUntil(core, 20);
    data = dataRequests(mem);
    ASSERT_EQ(data.size(), 4u);
    EXPECT_EQ(data[2]->vaddr, 0x5080u);
    EXPECT_EQ(data[3]->vaddr, 0x50c0u);
    EXPECT_EQ(core.stats().stores, 2u);
}

TEST_F(CoreTest, StlbMissAttributedToTranslationThenReplay)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    runUntil(core, 2);
    const CoreStats &s = core.stats();
    EXPECT_EQ(s.stlbMissAccesses, 1u);
    EXPECT_GT(s.stallCyclesT, 0u);
    EXPECT_GT(s.stallCyclesR, 0u);
    // The single walking load recorded one sample in each histogram.
    EXPECT_EQ(s.stallPerWalk.count(), 1u);
    EXPECT_EQ(s.stallPerReplay.count(), 1u);
}

TEST_F(CoreTest, DtlbHitLoadIsNonReplay)
{
    wl.script.push_back(loadRec(0x5000)); // walks, fills TLBs
    // Dependent so it issues only after the walk fills the DTLB.
    wl.script.push_back(loadRec(0x5040, /*dep=*/true));
    auto core = makeCore();
    runUntil(core, 3);
    EXPECT_EQ(core.stats().stlbMissAccesses, 1u);
    EXPECT_EQ(core.stats().stallPerNonReplay.count(), 1u);
    // The second load's request is not marked replay.
    bool foundNonReplay = false;
    for (const auto &r : mem.requests)
        if (r->type == ReqType::Load && !r->isReplay &&
            r->vaddr == 0x5040)
            foundNonReplay = true;
    EXPECT_TRUE(foundNonReplay);
}

TEST_F(CoreTest, ReplayLoadMarkedReplay)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    runUntil(core, 2);
    bool foundReplay = false;
    for (const auto &r : mem.requests)
        if (r->type == ReqType::Load && r->isReplay)
            foundReplay = true;
    EXPECT_TRUE(foundReplay);
}

TEST_F(CoreTest, StoresRetireWithoutWaitingForData)
{
    wl.script.push_back(storeRec(0x6000));
    auto core = makeCore();
    const Cycle cycles = runUntil(core, 2);
    EXPECT_EQ(core.stats().stores, 1u);
    // Store waits for translation (a full walk here) but not for the
    // 60-cycle data access on top of it.
    EXPECT_LT(cycles, 1u + 9 + 5 * 60 + 60);
    EXPECT_EQ(mem.countOf(ReqType::Store), 1u);
}

TEST_F(CoreTest, BlockedRequiresFullRobAndIncompleteHead)
{
    CoreParams p;
    p.robSize = 8;
    wl.script.push_back(loadRec(0x7000));
    auto core = makeCore(p);
    EXPECT_FALSE(core.blocked());
    // Fill the ROB behind the slow load.
    for (int i = 0; i < 4; ++i)
        core.tick();
    EXPECT_TRUE(core.blocked());
    test::drain(eq);
    core.tick();
    EXPECT_FALSE(core.blocked());
}

TEST_F(CoreTest, ChargeSkippedCyclesAccumulatesStall)
{
    CoreParams p;
    p.robSize = 8;
    wl.script.push_back(loadRec(0x7000));
    auto core = makeCore(p);
    for (int i = 0; i < 4; ++i)
        core.tick();
    const auto before = core.stats().stallCyclesT +
        core.stats().stallCyclesR + core.stats().stallCyclesN;
    core.chargeSkippedCycles(100);
    const auto after = core.stats().stallCyclesT +
        core.stats().stallCyclesR + core.stats().stallCyclesN;
    EXPECT_EQ(after, before + 100);
}

TEST_F(CoreTest, ResetStatsZeroesCounters)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    runUntil(core, 10);
    core.resetStats();
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(core.stats().stallCyclesT, 0u);
    EXPECT_EQ(core.stats().stallPerWalk.count(), 0u);
}

} // namespace
} // namespace tacsim
