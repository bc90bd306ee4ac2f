/**
 * @file
 * Allocation guard for the simulator's hot paths: once a page-table
 * walker + L1D + LLC + DRAM stack is warm, further page walks and cache
 * misses (merges, fills, writebacks, ATP and TEMPO prefetches included)
 * must not touch the heap.
 *
 * This file replaces the global operator new/delete with counting
 * versions, so it builds into its own test executable; the counter
 * never reaches the other test binaries.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cache/cache.hh"
#include "cache/repl/policy.hh"
#include "mem/dram.hh"
#include "mem/request_pool.hh"
#include "vm/page_table.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"

namespace {
std::atomic<std::uint64_t> gAllocs{0};
} // namespace

// The array and nothrow forms forward to these in libstdc++; the
// aligned forms keep their own allocator and stay uncounted. GCC takes
// the malloc/free pairing inside this replacement for a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace tacsim {
namespace {

/** Translation-conscious stack as System wires it: the walker reads
 *  through the L1D, the LLC runs T-DRRIP with ATP, DRAM runs TEMPO. */
struct Stack
{
    static CacheParams
    params(const char *name, std::uint32_t sets, std::uint32_t mshrs,
           RespSource level)
    {
        CacheParams p;
        p.name = name;
        p.sets = sets;
        p.ways = 8;
        p.latency = level == RespSource::L1D ? 4 : 20;
        p.mshrs = mshrs;
        p.level = level;
        p.atp = level == RespSource::LLC;
        return p;
    }

    static ReplOpts
    tdrrip()
    {
        ReplOpts o;
        o.translationRrpv0 = true;
        o.replayEvictFast = true;
        return o;
    }

    EventQueue eq;
    Dram dram{"dram", eq};
    Cache llc{params("LLC", 64, 64, RespSource::LLC), eq, &dram,
              makePolicy(PolicyKind::DRRIP, 64, 8, tdrrip())};
    Cache l1d{params("L1D", 16, 32, RespSource::L1D), eq, &llc,
              makePolicy(PolicyKind::LRU, 16, 8)};
    FrameAllocator frames;
    PageTable pt{frames};
    Tlb stlb{"STLB", 1536, 12, 8};
    PageTableWalker ptw{eq, &l1d};
    std::uint64_t walksDone = 0;
    std::uint64_t accessesDone = 0;

    Stack()
    {
        dram.setTempoEnabled(true);
        dram.setTempoHook([this](Addr block, Addr ip) {
            llc.issuePrefetch(block, PrefetchOrigin::Tempo, ip);
        });
        ptw.addAddressSpace(0, &pt);
        ptw.setStlb(&stlb);
    }

    static constexpr unsigned kOps = 1024;

    /** One batch: a walk every 4th op; the rest are demand accesses to
     *  768 blocks (more than the LLC holds), every third of them a
     *  store. Ops are 48 cycles apart, so no MSHR file fills. Every
     *  batch touches the same addresses, so the page table is built
     *  once. */
    void
    batch()
    {
        for (unsigned i = 0; i < kOps; ++i) {
            if (i % 4 == 0) {
                // 64 2MB regions, each walked four times a batch; the
                // page index spreads leaf-PTE blocks over cache sets.
                const Addr r = i / 4 % 64;
                const Addr va = (r << 21) + (r * 9 + i % 7) % 512 * kPageSize;
                ptw.walk(0, va, 0x400000 + i, 0,
                         [this](Addr, PageSize, RespSource) {
                             ++walksDone;
                         });
            } else {
                MemRequestPtr req = makeRequest();
                req->paddr = 0x40000000 + (Addr{i} * 4 + i / 256) * 64;
                req->ip = 0x500000 + (i % 16) * 4;
                req->type = i % 4 == 3 ? ReqType::Store : ReqType::Load;
                req->isReplay = i % 8 == 1;
                req->issuedAt = eq.now();
                req->onComplete = [this](MemRequest &) { ++accessesDone; };
                l1d.access(req);
            }
            eq.advanceTo(eq.now() + 48);
        }
        while (!eq.empty())
            eq.advanceTo(eq.nextEventCycle());
    }
};

/** Counters the guard reads before and after the measured batches. */
struct Tally
{
    std::uint64_t walks, accesses, demandMisses, ptMisses, merges, writebacks,
        atp, tempo, l1dFull, llcFull;

    static Tally
    of(const Stack &s)
    {
        const CacheStats &l1 = s.l1d.stats();
        const CacheStats &llc = s.llc.stats();
        return {s.walksDone,
                s.accessesDone,
                l1.demandMisses(),
                l1.translationMisses(),
                l1.mshrMerges,
                l1.writebacksOut,
                llc.atpIssued,
                s.dram.stats().tempoPrefetches,
                l1.mshrFullEvents,
                llc.mshrFullEvents};
    }
};

TEST(AllocGuard, CounterSeesDirectAllocations)
{
    // Without this, a replacement the linker ignored would make the
    // guard below pass vacuously.
    const std::uint64_t before = gAllocs.load();
    void *p = ::operator new(64);
    ::operator delete(p);
    EXPECT_EQ(gAllocs.load() - before, 1u);
}

TEST(AllocGuard, WarmWalksAndMissesDoNotAllocate)
{
    Stack s;
    // Warm-up builds the page table, the request and walk-state pools,
    // the event slabs and the MSHR tables.
    for (int round = 0; round < 3; ++round)
        s.batch();

    const Tally t0 = Tally::of(s);
    const std::uint64_t before = gAllocs.load();
    s.batch();
    s.batch();
    const std::uint64_t allocs = gAllocs.load() - before;
    const Tally t1 = Tally::of(s);

    EXPECT_EQ(allocs, 0u);
    // The measured batches covered the paths they claim to.
    EXPECT_EQ(t1.walks - t0.walks, 2u * Stack::kOps / 4);
    EXPECT_EQ(t1.accesses - t0.accesses, 2u * Stack::kOps * 3 / 4);
    EXPECT_GT(t1.demandMisses - t0.demandMisses, Stack::kOps);
    EXPECT_GT(t1.ptMisses - t0.ptMisses, 0u);
    EXPECT_GT(t1.merges - t0.merges, 0u);
    EXPECT_GT(t1.writebacks - t0.writebacks, 0u);
    EXPECT_GT(t1.atp - t0.atp, 0u);
    EXPECT_GT(t1.tempo - t0.tempo, 0u);
    // Requests that find the MSHRs full wait in a std::deque, which is
    // outside this guard: the spacing keeps every MSHR file below full.
    EXPECT_EQ(t1.l1dFull - t0.l1dFull, 0u);
    EXPECT_EQ(t1.llcFull - t0.llcFull, 0u);
}

} // namespace
} // namespace tacsim
