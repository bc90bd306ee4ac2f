/**
 * @file
 * Unit tests for the page-table walker: serial level reads, PSC skips,
 * merging, concurrency limits, STLB fills, the ATP plumbing
 * (IsLeafLevel + replay block address) and walk-state pooling.
 */

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "test_util.hh"
#include "vm/ptw.hh"

namespace tacsim {
namespace {

struct PtwTest : ::testing::Test
{
    EventQueue eq;
    test::MockMemory mem{eq, 50};
    FrameAllocator fa;
    PageTable pt{fa};

    PageTableWalker
    makeWalker(PtwParams p = {})
    {
        PageTableWalker w(eq, &mem, p);
        w.addAddressSpace(0, &pt);
        return w;
    }
};

TEST_F(PtwTest, ColdWalkReadsAllFiveLevels)
{
    auto w = makeWalker();
    Addr result = 0;
    w.walk(0, 0x12345000, 0x400000, 0,
           [&](Addr paddr, PageSize, RespSource) { result = paddr; });
    test::drain(eq);
    EXPECT_EQ(mem.countOf(ReqType::Translation), kPtLevels);
    EXPECT_EQ(result, pt.translate(0x12345000));
    EXPECT_EQ(w.stats().walks, 1u);
    for (unsigned l = 0; l < kPtLevels; ++l)
        EXPECT_EQ(w.stats().levelReads[l], 1u);
}

TEST_F(PtwTest, LevelsReadSerially)
{
    auto w = makeWalker();
    w.walk(0, 0x5000, 0, 0, [](Addr, PageSize, RespSource) {});
    // After PSC latency + one memory delay, only one read has issued.
    eq.advanceTo(10);
    EXPECT_EQ(mem.requests.size(), 1u);
    eq.advanceTo(60);
    EXPECT_EQ(mem.requests.size(), 2u);
    test::drain(eq);
    EXPECT_EQ(mem.requests.size(), kPtLevels);
}

TEST_F(PtwTest, PscHitSkipsUpperLevels)
{
    auto w = makeWalker();
    // First walk warms the PSCs.
    w.walk(0, 0x40000000, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    const auto readsAfterFirst = mem.countOf(ReqType::Translation);
    EXPECT_EQ(readsAfterFirst, kPtLevels);

    // Second walk in the same 2MB region: PSCL2 hit -> leaf read only.
    w.walk(0, 0x40000000 + 7 * kPageSize, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    EXPECT_EQ(mem.countOf(ReqType::Translation), readsAfterFirst + 1);
    EXPECT_EQ(w.pscStats().hitsAtLevel[1], 1u); // PSCL2
}

TEST_F(PtwTest, LeafRequestCarriesReplayBlock)
{
    auto w = makeWalker();
    const Addr vaddr = 0x77777123; // offset 0x123 within the page
    w.walk(0, vaddr, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    unsigned leafSeen = 0;
    for (const auto &r : mem.requests) {
        if (r->type != ReqType::Translation)
            continue;
        if (r->ptLevel == 1) {
            ++leafSeen;
            EXPECT_TRUE(r->isLeafTranslation());
            EXPECT_EQ(r->replayBlockPaddr,
                      blockAlign(pt.translate(vaddr)));
        } else {
            EXPECT_EQ(r->replayBlockPaddr, 0u);
        }
    }
    EXPECT_EQ(leafSeen, 1u);
}

TEST_F(PtwTest, SameVpnWalksMerge)
{
    auto w = makeWalker();
    int done = 0;
    w.walk(0, 0x9000, 0, 0, [&](Addr, PageSize, RespSource) { ++done; });
    w.walk(0, 0x9008, 0, 0, [&](Addr, PageSize, RespSource) { ++done; });
    w.walk(0, 0x9ff0, 0, 0, [&](Addr, PageSize, RespSource) { ++done; });
    test::drain(eq);
    EXPECT_EQ(done, 3);
    EXPECT_EQ(w.stats().walks, 1u);
    EXPECT_EQ(w.stats().merged, 2u);
}

TEST_F(PtwTest, ConcurrencyLimitQueuesWalks)
{
    PtwParams p;
    p.maxConcurrentWalks = 2;
    auto w = makeWalker(p);
    int done = 0;
    for (Addr i = 0; i < 5; ++i)
        w.walk(0, (Addr{0x100} + i) << 12, 0, 0,
               [&](Addr, PageSize, RespSource) { ++done; });
    EXPECT_EQ(w.activeWalks(), 2u);
    EXPECT_EQ(w.stats().queued, 3u);
    test::drain(eq);
    EXPECT_EQ(done, 5);
    EXPECT_EQ(w.stats().walks, 5u);
    EXPECT_EQ(w.activeWalks(), 0u);
}

TEST_F(PtwTest, StlbFilledOnCompletion)
{
    Tlb stlb("stlb", 64, 4, 8);
    auto w = makeWalker();
    w.setStlb(&stlb);
    const Addr vaddr = 0xabcd3456;
    w.walk(0, vaddr, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    Addr pa = 0;
    EXPECT_TRUE(stlb.probe(0, vaddr, pa));
    EXPECT_EQ(pa, pt.translate(vaddr));
}

TEST_F(PtwTest, LeafSourceRecorded)
{
    auto w = makeWalker();
    w.walk(0, 0x4000, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    EXPECT_EQ(w.stats().leafFromDram, 1u); // mock completes as DRAM
}

TEST_F(PtwTest, WalkLatencyIncludesAllLevels)
{
    auto w = makeWalker();
    Cycle finished = 0;
    w.walk(0, 0x8000, 0, 0,
           [&](Addr, PageSize, RespSource) { finished = eq.now(); });
    test::drain(eq);
    // 1 cycle PSC + 5 serial reads of 50 cycles.
    EXPECT_EQ(finished, 1u + kPtLevels * 50u);
    EXPECT_EQ(w.stats().walkLatency.count(), 1u);
    EXPECT_EQ(w.stats().walkLatency.max(), 1u + kPtLevels * 50u);
}

TEST_F(PtwTest, DistinctAsidsWalkDistinctTables)
{
    PageTable pt2(fa);
    auto w = makeWalker();
    w.addAddressSpace(1, &pt2);
    Addr pa0 = 0, pa1 = 0;
    w.walk(0, 0x6000, 0, 0, [&](Addr p, PageSize, RespSource) { pa0 = p; });
    w.walk(1, 0x6000, 0, 1, [&](Addr p, PageSize, RespSource) { pa1 = p; });
    test::drain(eq);
    EXPECT_NE(pa0, 0u);
    EXPECT_NE(pa1, 0u);
    EXPECT_NE(pa0, pa1);
}

/** Memory stub that answers every read from a settable level, so a
 *  walk's leaf source tells walks apart. */
class SourceMemory : public MemDevice
{
  public:
    explicit SourceMemory(EventQueue &eq) : eq_(eq) {}

    void
    access(const MemRequestPtr &req) override
    {
        reads.push_back({req->paddr, req->ptLevel, req->leafPte,
                         req->replayBlockPaddr});
        eq_.schedule(20, [this, req, src = source] {
            req->complete(eq_.now(), src);
        });
    }

    const std::string &name() const override { return name_; }

    struct Read
    {
        Addr paddr;
        std::uint8_t ptLevel;
        bool leafPte;
        Addr replayBlockPaddr;
        bool operator==(const Read &) const = default;
    };
    std::vector<Read> reads;
    RespSource source = RespSource::DRAM;

  private:
    EventQueue &eq_;
    std::string name_ = "source";
};

TEST_F(PtwTest, RecycledWalkStateMatchesAFreshWalker)
{
    SourceMemory smem(eq);
    PageTableWalker w(eq, &smem);
    w.addAddressSpace(0, &pt);

    // Walk A: cold (five reads), three merged callbacks, leaf from L1D.
    // Its state then sits in the pool with five reads and three
    // callbacks of capacity, nextRead == 5 and leafSource == L1D.
    smem.source = RespSource::L1D;
    int aFired = 0;
    for (Addr off : {Addr{0}, Addr{0x40}, Addr{0x80}})
        w.walk(0, 0x12345000 + off, 0, 0,
               [&](Addr, PageSize, RespSource) { ++aFired; });
    test::drain(eq);
    ASSERT_EQ(aFired, 3);
    ASSERT_EQ(smem.reads.size(), kPtLevels);

    // A fresh walker with the same PSC contents and an empty pool.
    SourceMemory fmem(eq);
    PageTableWalker fresh(eq, &fmem);
    fresh.addAddressSpace(0, &pt);
    SerialWriter sw;
    w.saveState(sw);
    SerialReader sr(sw.bytes());
    fresh.loadState(sr);

    // Walk B, same 2MB region: a PSCL2 hit leaves only the leaf read,
    // which LLC answers. A stale state would re-read A's levels, skip
    // B's read, report L1D or re-fire A's callbacks.
    const Addr vb = 0x12345000 + 9 * kPageSize + 0x123;
    smem.source = fmem.source = RespSource::LLC;
    smem.reads.clear();
    std::vector<std::pair<Addr, RespSource>> got, want;
    w.walk(0, vb, 0, 0, [&](Addr pa, PageSize, RespSource src) {
        got.emplace_back(pa, src);
    });
    fresh.walk(0, vb, 0, 0, [&](Addr pa, PageSize, RespSource src) {
        want.emplace_back(pa, src);
    });
    test::drain(eq);

    EXPECT_EQ(aFired, 3);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got[0].first, pt.translate(vb));
    EXPECT_EQ(got[0].second, RespSource::LLC);
    ASSERT_EQ(fmem.reads.size(), 1u);
    EXPECT_EQ(smem.reads, fmem.reads);
    EXPECT_TRUE(smem.reads[0].leafPte);
    EXPECT_EQ(smem.reads[0].replayBlockPaddr,
              blockAlign(pt.translate(vb)));
    EXPECT_EQ(w.stats().leafFromLLC, 1u);
    EXPECT_EQ(w.stats().leafFromL1D, 1u);
    EXPECT_EQ(w.stats().walkRefs.count(), 2u);
    EXPECT_DOUBLE_EQ(w.stats().walkRefs.mean(), (kPtLevels + 1.0) / 2);
    w.checkInvariants();
}

TEST_F(PtwTest, MergedCallbacksFireInArrivalOrderOnRecycledStates)
{
    PtwParams p;
    p.maxConcurrentWalks = 1;
    auto w = makeWalker(p);
    // Warm the pool: two walks leave two states with callback capacity.
    w.walk(0, kPageSize, 0, 0, [](Addr, PageSize, RespSource) {});
    w.walk(0, 2 * kPageSize, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);

    // One in-flight walk and one queued walk, each with merged waiters
    // interleaved in arrival order.
    std::vector<int> order;
    auto tag = [&order](int id) {
        return [&order, id](Addr, PageSize, RespSource) {
            order.push_back(id);
        };
    };
    w.walk(0, 0x30000, 0, 0, tag(0));
    w.walk(0, 0x40000, 0, 0, tag(10)); // queued behind the limit
    w.walk(0, 0x30008, 0, 0, tag(1));
    w.walk(0, 0x40008, 0, 0, tag(11)); // merges into the queued walk
    w.walk(0, 0x30010, 0, 0, tag(2));
    w.walk(0, 0x40010, 0, 0, tag(12));
    w.checkInvariants();
    test::drain(eq);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
    EXPECT_EQ(w.stats().merged, 4u);
    EXPECT_EQ(w.stats().queued, 2u); // 0x2000 and 0x40000
}

TEST_F(PtwTest, QueuedWalksDrainAfterStatesAreRecycled)
{
    PtwParams p;
    p.maxConcurrentWalks = 2;
    auto w = makeWalker(p);
    std::vector<Addr> done;
    auto record = [&done](Addr pa, PageSize, RespSource) {
        done.push_back(pa);
    };
    std::vector<Addr> expect;
    // Three rounds; each queues more walks than the last, so later
    // rounds run on a mix of recycled and new states.
    Addr top = 1;
    for (unsigned round = 1; round <= 3; ++round) {
        for (unsigned i = 0; i < 3 * round; ++i, ++top) {
            // A distinct root index per walk: every walk misses all the
            // PSCs and reads all five levels.
            const Addr va = top << 48;
            w.walk(0, va, 0, 0, record);
            expect.push_back(pt.translate(va));
        }
        EXPECT_EQ(w.activeWalks(), 2u);
        w.checkInvariants();
        test::drain(eq);
        EXPECT_EQ(w.activeWalks(), 0u);
        w.checkInvariants();
    }
    // Walks of equal depth start FIFO and take equally long, so they
    // finish in the order they were requested.
    EXPECT_EQ(done, expect);
    EXPECT_EQ(w.stats().walks, 18u);
    EXPECT_EQ(w.stats().queued, 1u + 4u + 7u);
}

} // namespace
} // namespace tacsim
