/**
 * @file
 * Tests for the open-addressed line table (flat_tables.hh): FlatLineMap
 * against a std::unordered_map reference over a long random op stream
 * with heavy tombstone churn, its load and shrink rules, lazy first
 * allocation, and DecayingCounterTable against a reference map that
 * halves and drops at the same occupancy limit, and when the MSHR book
 * (PendingTable) drops entries far behind its newest booking.  The
 * book's differential test against a map is in cache_test.cc.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/intmath.hh"
#include "common/rng.hh"
#include "mem/flat_tables.hh"

namespace garibaldi
{
namespace
{

std::map<Addr, std::uint32_t>
pairsOf(const FlatLineMap<std::uint32_t> &m)
{
    std::map<Addr, std::uint32_t> out;
    m.forEach([&](Addr k, std::uint32_t v) {
        EXPECT_TRUE(out.emplace(k, v).second) << "key " << k << " twice";
    });
    return out;
}

std::map<Addr, std::uint32_t>
pairsOf(const std::unordered_map<Addr, std::uint32_t> &ref)
{
    return {ref.begin(), ref.end()};
}

TEST(FlatLineMap, AllocatesOnFirstInsert)
{
    FlatLineMap<std::uint32_t> m(100);
    EXPECT_EQ(m.capacity(), 0u);
    // Every read and sweep works on the unallocated table.
    EXPECT_EQ(m.find(7), nullptr);
    m.erase(7);
    m.eraseIf([](Addr, std::uint32_t &) { return true; });
    EXPECT_TRUE(pairsOf(m).empty());
    EXPECT_EQ(m.capacity(), 0u);

    m.ref(7) = 3;
    EXPECT_EQ(m.capacity(), flat::tableCapacity(100));
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 3u);
}

TEST(FlatLineMap, GrowsAtThreeQuartersLoad)
{
    // 16 slots: inserting the 12th key would reach 3/4, so it doubles
    // the table first.
    FlatLineMap<std::uint32_t> m(8);
    for (Addr k = 1; k <= 11; ++k)
        m.ref(k) = static_cast<std::uint32_t>(k);
    EXPECT_EQ(m.capacity(), 16u);
    m.ref(12) = 12;
    EXPECT_EQ(m.capacity(), 32u);
    EXPECT_EQ(m.size(), 12u);
    for (Addr k = 1; k <= 12; ++k)
        ASSERT_NE(m.find(k), nullptr) << k;
}

TEST(FlatLineMap, TombstonesAreClearedWithoutGrowing)
{
    // Ten resident keys plus one churning key in 16 slots: every
    // insert/erase pair can leave a tombstone, and the rebuilds that
    // clear them keep the capacity, since 11 live keys stay under 3/4.
    FlatLineMap<std::uint32_t> m(8);
    for (Addr k = 0; k < 10; ++k)
        m.ref(k) = 1;
    for (Addr k = 100; k < 10000; ++k) {
        m.ref(k) = 1;
        m.erase(k);
        ASSERT_EQ(m.capacity(), 16u) << k;
    }
    EXPECT_EQ(m.size(), 10u);
}

TEST(FlatLineMap, SweepShrinksToFitButNotBelowConstruction)
{
    FlatLineMap<std::uint32_t> m(16); // 32 slots
    auto fill = [&m] {
        for (Addr k = 0; k < 10000; ++k)
            m.ref(k) = static_cast<std::uint32_t>(k);
        EXPECT_EQ(m.capacity(), 16384u);
    };
    fill();
    // Keep 10 keys, doubling their values in place.
    m.eraseIf([](Addr k, std::uint32_t &v) {
        v *= 2;
        return k >= 10;
    });
    // Smallest pow2 with (10 + 1) * 8 > capacity.
    EXPECT_EQ(m.capacity(), 64u);
    ASSERT_EQ(m.size(), 10u);
    for (Addr k = 0; k < 10; ++k) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), 2 * k);
    }

    fill();
    m.eraseIf([](Addr, std::uint32_t &) { return true; });
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), 32u); // the construction capacity

    // A sweep that leaves fewer than half the slots tombstones keeps
    // the table as it is.
    for (Addr k = 0; k < 20; ++k)
        m.ref(k) = 1;
    m.eraseIf([](Addr k, std::uint32_t &) { return k < 15; });
    EXPECT_EQ(m.capacity(), 32u);
    EXPECT_EQ(m.size(), 5u);
}

TEST(FlatLineMap, MatchesUnorderedMapUnderChurn)
{
    // 1M random ref/find/erase/eraseIf ops.  The key space switches
    // between small and large every 50k ops, so the table grows, fills
    // with tombstones (erases are as common as inserts) and shrinks on
    // heavy sweeps; forEach must visit exactly the reference's pairs.
    FlatLineMap<std::uint32_t> m(64);
    std::unordered_map<Addr, std::uint32_t> ref;
    constexpr std::uint32_t kKeySpaces[] = {48, 1024, 16384, 256};

    Pcg32 rng(0xf1a7);
    std::uint32_t key_space = kKeySpaces[0];
    std::size_t shrinks = 0;
    for (int op = 0; op < 1000000; ++op) {
        if (op % 50000 == 0)
            key_space = kKeySpaces[(op / 50000) % 4];
        // Sparse keys spread over the hash range, line-number sized.
        Addr key = mix64(rng.nextBounded(key_space)) >> 8;
        std::uint32_t kind = rng.nextBounded(1000);
        if (kind < 400) {
            std::uint32_t delta = rng.nextBounded(100);
            m.ref(key) += delta;
            ref[key] += delta;
        } else if (kind < 650) {
            const std::uint32_t *v = m.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end()) << "op " << op;
            if (v) {
                ASSERT_EQ(*v, it->second) << "op " << op;
            }
        } else if (kind < 998) {
            m.erase(key);
            ref.erase(key);
        } else {
            // Drop a random share of the entries and bump the rest.
            std::uint32_t drop_pct = rng.nextBounded(2) ? 97 : 20;
            std::uint64_t salt = rng.next64();
            auto dies = [&](Addr k, std::uint32_t &v) {
                ++v;
                return mix64(k ^ salt) % 100 < drop_pct;
            };
            std::size_t cap_before = m.capacity();
            m.eraseIf(dies);
            for (auto it = ref.begin(); it != ref.end();)
                it = dies(it->first, it->second) ? ref.erase(it)
                                                 : std::next(it);
            shrinks += m.capacity() < cap_before;
        }
        ASSERT_EQ(m.size(), ref.size()) << "op " << op;
        if (op % 4096 == 0 || kind >= 998) {
            ASSERT_EQ(pairsOf(m), pairsOf(ref)) << "op " << op;
        }
    }
    EXPECT_EQ(pairsOf(m), pairsOf(ref));
    EXPECT_GT(shrinks, 0u);
}

TEST(PendingTable, SlackEntriesDropOnlyAtRebuilds)
{
    // 8 expected fills → 16 slots.  Key 2's booking puts the watermark
    // far ahead, so key 1 (ready 1000) falls more than kExpirySlack
    // (2^18 cycles) behind it.  A pruning sweep that does not rebuild
    // keeps key 1; one that rebuilds drops it along with the expired.
    auto book = [](Addr expired_keys) {
        PendingTable t(8);
        t.set(1, 1000);
        t.set(2, 500000);
        for (Addr k = 3; k < 3 + expired_keys; ++k)
            t.set(k, 200);
        t.pruneExpired(300);
        return t;
    };
    PendingTable no_rebuild = book(7); // 7 of 16 slots tombstones
    EXPECT_EQ(no_rebuild.get(1), 1000u);
    EXPECT_EQ(no_rebuild.size(), 2u);
    PendingTable rebuild = book(8);    // 8 of 16
    EXPECT_EQ(rebuild.get(1), 0u);
    EXPECT_EQ(rebuild.get(2), 500000u);
    EXPECT_EQ(rebuild.size(), 1u);

    // An insert at the load limit (the 12th live entry) sweeps them
    // first.
    PendingTable t(8);
    t.set(1, 1000);
    for (Addr k = 2; k <= 11; ++k)
        t.set(k, 500000);
    EXPECT_EQ(t.get(1), 1000u);
    t.set(12, 500000);
    EXPECT_EQ(t.get(1), 0u);
    EXPECT_EQ(t.size(), 11u);
}

/**
 * Obviously-correct decaying counters: the same occupancy limit as
 * DecayingCounterTable, spelled out over a std::unordered_map.
 */
struct RefDecayingCounters
{
    std::unordered_map<Addr, std::uint8_t> counts;
    std::size_t limit;
    std::size_t untracked = 0;

    std::uint8_t
    increment(Addr key)
    {
        auto it = counts.find(key);
        if (it == counts.end() && counts.size() + 1 >= limit) {
            for (auto d = counts.begin(); d != counts.end();) {
                d->second >>= 1;
                d = d->second == 0 ? counts.erase(d) : std::next(d);
            }
            it = counts.find(key);
            if (it == counts.end() && counts.size() + 1 >= limit) {
                ++untracked;
                return 1;
            }
        }
        if (it == counts.end()) {
            counts.emplace(key, 1);
            return 1;
        }
        if (it->second < 255)
            ++it->second;
        return it->second;
    }
};

TEST(DecayingCounterTable, MatchesReferenceAtTheOccupancyLimit)
{
    // 8 entries → 16 slots → decay when the 12th line would enter.
    DecayingCounterTable table(8);
    RefDecayingCounters ref{{}, 16 * 3 / 4};
    auto step = [&](Addr key) {
        std::uint8_t got = table.increment(key);
        EXPECT_EQ(got, ref.increment(key)) << "key " << key;
        EXPECT_EQ(table.size(), ref.counts.size()) << "key " << key;
        return got;
    };

    // Eleven lines at count 2 survive a decay, so line 12 finds the
    // table still full and is observed without being tracked; the
    // next decay empties the table and line 12 gets in.
    for (int rep = 0; rep < 2; ++rep)
        for (Addr k = 1; k <= 11; ++k)
            step(k);
    EXPECT_EQ(step(12), 1u);
    EXPECT_EQ(ref.untracked, 1u);
    EXPECT_EQ(table.size(), 11u);
    EXPECT_EQ(step(12), 1u);
    EXPECT_EQ(table.size(), 1u);
    for (int i = 0; i < 300; ++i)
        step(12);
    EXPECT_EQ(step(12), 255u); // saturates

    // Then 1M random increments: hot lines that survive decays, warm
    // lines that survive a few, and cold lines that age out.
    Pcg32 rng(0xdeca);
    for (int op = 0; op < 1000000; ++op) {
        std::uint32_t r = rng.nextBounded(100);
        Addr key = r < 60   ? rng.nextBounded(6)
                   : r < 80 ? 1000 + rng.nextBounded(16)
                            : 100000 + rng.nextBounded(1u << 20);
        ASSERT_EQ(table.increment(key), ref.increment(key)) << "op " << op;
        ASSERT_EQ(table.size(), ref.counts.size()) << "op " << op;
    }
}

} // namespace
} // namespace garibaldi
