/**
 * @file
 * AddrMap stress tests: randomized churn (insert, erase, take, update)
 * against a std::unordered_map reference model (growth/rehash under
 * load), targeted backward-shift deletion and take() across the table's
 * wrap boundary, and Addr 0 as a live key
 * (the map uses an explicit occupancy flag, not a sentinel key).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/addr_map.hh"
#include "common/rng.hh"

namespace tacsim {
namespace {

/** Mirror of AddrMap's Fibonacci home slot, for crafting collisions. */
std::size_t
homeOf(std::uint64_t key, std::size_t cap)
{
    const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> (64 - std::countr_zero(cap)));
}

/** First @p n distinct nonzero keys whose home slot is @p h at @p cap. */
std::vector<std::uint64_t>
keysWithHome(std::size_t h, std::size_t cap, std::size_t n)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 1; out.size() < n; ++k)
        if (homeOf(k, cap) == h)
            out.push_back(k);
    return out;
}

/** Full cross-check: same size, same entries, forEach agrees. */
void
expectMatchesReference(
    const AddrMap<std::uint64_t> &map,
    const std::unordered_map<std::uint64_t, std::uint64_t> &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint64_t *p = map.find(k);
        ASSERT_NE(p, nullptr) << "key " << k << " lost";
        EXPECT_EQ(*p, v) << "key " << k << " has wrong value";
    }
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t k, const std::uint64_t &v) {
        ++visited;
        const auto it = ref.find(k);
        ASSERT_NE(it, ref.end()) << "forEach produced ghost key " << k;
        EXPECT_EQ(v, it->second);
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(AddrMap, ChurnMatchesReferenceModel)
{
    // Start tiny so the churn rides through several growth/rehash
    // cycles; block-aligned keys exercise the Fibonacci spread the
    // structure exists for.
    AddrMap<std::uint64_t> map(2);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(12345);

    for (std::uint64_t step = 1; step <= 30000; ++step) {
        const std::uint64_t key = rng.range(400) * 64; // includes 0
        const auto it = ref.find(key);
        if (it == ref.end()) {
            map.insert(key, step);
            ref.emplace(key, step);
        } else if (rng.chance(0.6)) {
            if (rng.chance(0.5)) {
                EXPECT_TRUE(map.erase(key));
            } else {
                // Take-and-erase, like an MSHR fill or a finished walk.
                std::uint64_t out = 0;
                EXPECT_TRUE(map.take(key, out));
                EXPECT_EQ(out, it->second);
            }
            ref.erase(it);
        } else {
            // Update through find(), like MSHR merge does.
            std::uint64_t *p = map.find(key);
            ASSERT_NE(p, nullptr);
            *p = step;
            it->second = step;
        }
        // Absent keys must stay absent (and erase must say so).
        const std::uint64_t ghost = (400 + rng.range(100)) * 64;
        EXPECT_EQ(map.find(ghost), nullptr);
        EXPECT_FALSE(map.erase(ghost));
        std::uint64_t untouched = 7;
        EXPECT_FALSE(map.take(ghost, untouched));
        EXPECT_EQ(untouched, 7u);

        if (step % 1000 == 0)
            expectMatchesReference(map, ref);
    }
    expectMatchesReference(map, ref);

    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.size(), 0u);
    for (const auto &[k, v] : ref)
        EXPECT_EQ(map.find(k), nullptr) << v;
}

TEST(AddrMap, GrowthRehashPreservesEveryEntry)
{
    AddrMap<std::uint64_t> map(2);
    // 1000 entries force the slot array through many doublings; key 0
    // goes in first so it survives every rehash.
    for (std::uint64_t i = 0; i < 1000; ++i)
        map.insert(i * 64, i + 1);
    ASSERT_EQ(map.size(), 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t *p = map.find(i * 64);
        ASSERT_NE(p, nullptr) << "key " << i * 64 << " lost in rehash";
        EXPECT_EQ(*p, i + 1);
    }

    for (std::uint64_t i = 0; i < 1000; i += 2)
        EXPECT_TRUE(map.erase(i * 64));
    EXPECT_EQ(map.size(), 500u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(map.contains(i * 64), i % 2 == 1);
}

TEST(AddrMap, BackwardShiftDeletionAcrossWrapBoundary)
{
    // Default construction gives a 16-slot table; stay under 8 entries
    // so it never grows and the hand-picked home slots hold.
    constexpr std::size_t kCap = 16;
    AddrMap<int> map;

    // Three colliders homed at the last slot: they occupy slots 15, 0, 1
    // (the probe chain wraps), plus one key homed at slot 1 displaced to
    // slot 2.
    const std::vector<std::uint64_t> tail = keysWithHome(kCap - 1, kCap, 3);
    const std::uint64_t after = keysWithHome(1, kCap, 1)[0];
    map.insert(tail[0], 10);
    map.insert(tail[1], 11);
    map.insert(tail[2], 12);
    map.insert(after, 20);
    ASSERT_EQ(map.size(), 4u);

    // Deleting the chain head forces backward shift across the wrap:
    // every follower (including the displaced slot-1 key) must stay
    // reachable.
    EXPECT_TRUE(map.erase(tail[0]));
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.find(tail[0]), nullptr);
    ASSERT_NE(map.find(tail[1]), nullptr);
    EXPECT_EQ(*map.find(tail[1]), 11);
    ASSERT_NE(map.find(tail[2]), nullptr);
    EXPECT_EQ(*map.find(tail[2]), 12);
    ASSERT_NE(map.find(after), nullptr);
    EXPECT_EQ(*map.find(after), 20);

    // Delete from the middle of the (now shifted) chain too.
    EXPECT_TRUE(map.erase(tail[2]));
    EXPECT_EQ(map.find(tail[2]), nullptr);
    ASSERT_NE(map.find(tail[1]), nullptr);
    ASSERT_NE(map.find(after), nullptr);
}

TEST(AddrMap, TakeAcrossWrapBoundaryMovesValueAndShiftsFollowers)
{
    // Same layout as above (slots 15, 0, 1 plus a displaced slot-2 key),
    // emptied with take(): each call must hand back its own value and
    // leave every follower reachable after the backward shift.
    constexpr std::size_t kCap = 16;
    AddrMap<std::unique_ptr<int>> map;
    const std::vector<std::uint64_t> tail = keysWithHome(kCap - 1, kCap, 3);
    const std::uint64_t after = keysWithHome(1, kCap, 1)[0];
    map.insert(tail[0], std::make_unique<int>(10));
    map.insert(tail[1], std::make_unique<int>(11));
    map.insert(tail[2], std::make_unique<int>(12));
    map.insert(after, std::make_unique<int>(20));

    std::unique_ptr<int> out;
    ASSERT_TRUE(map.take(tail[0], out)); // chain head, slot 15
    EXPECT_EQ(*out, 10);
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.find(tail[0]), nullptr);
    ASSERT_NE(map.find(tail[1]), nullptr);
    EXPECT_EQ(**map.find(tail[1]), 11);
    ASSERT_NE(map.find(tail[2]), nullptr);
    EXPECT_EQ(**map.find(tail[2]), 12);
    ASSERT_NE(map.find(after), nullptr);
    EXPECT_EQ(**map.find(after), 20);

    ASSERT_TRUE(map.take(after, out));
    EXPECT_EQ(*out, 20);
    ASSERT_TRUE(map.take(tail[2], out));
    EXPECT_EQ(*out, 12);
    ASSERT_TRUE(map.take(tail[1], out));
    EXPECT_EQ(*out, 11);
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.take(tail[1], out));
    EXPECT_EQ(*out, 11); // a miss leaves the output alone
}

TEST(AddrMap, ZeroAddressIsALiveKeyThroughWrapChurn)
{
    // Addr 0 homes at slot 0 — exactly where a wrapping probe chain from
    // the last slot lands. The explicit occupancy flag must keep it
    // distinct from "empty" while deletions shift neighbours around it.
    constexpr std::size_t kCap = 16;
    ASSERT_EQ(homeOf(0, kCap), 0u);

    AddrMap<int> map;
    map.insert(0, 7);
    const std::vector<std::uint64_t> tail = keysWithHome(kCap - 1, kCap, 2);
    map.insert(tail[0], 1); // slot 15
    map.insert(tail[1], 2); // wraps past occupied slot 0 into slot 1

    // Erasing the chain head shifts tail[1] backwards across the wrap;
    // key 0 sits in the middle of that chain and must not move or die.
    EXPECT_TRUE(map.erase(tail[0]));
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 7);
    ASSERT_NE(map.find(tail[1]), nullptr);
    EXPECT_EQ(*map.find(tail[1]), 2);

    EXPECT_TRUE(map.erase(0));
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_FALSE(map.erase(0));
    ASSERT_NE(map.find(tail[1]), nullptr);

    // Reinsert and survive a growth cycle.
    map.insert(0, 9);
    for (std::uint64_t i = 1; i <= 32; ++i)
        map.insert(i * 4096, static_cast<int>(i));
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 9);
}

} // namespace
} // namespace tacsim
