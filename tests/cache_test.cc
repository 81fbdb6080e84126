/**
 * @file
 * Unit tests for the set-associative cache: geometry, hit/miss paths,
 * eviction/writeback, MSHR pending-merge, the instruction bit, the
 * prefetched bit, the I-oracle mode, way partitioning, the QBS
 * companion hooks, and the MSHR book against a std::map reference.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hh"
#include "mem/cache.hh"

namespace garibaldi
{
namespace
{

MemAccess
makeAccess(Addr paddr, bool instr = false, bool write = false,
           Addr pc = 0x1000)
{
    MemAccess a;
    a.paddr = paddr;
    a.isInstr = instr;
    a.isWrite = write;
    a.pc = pc;
    return a;
}

CacheParams
smallParams(std::uint32_t assoc = 4, std::uint64_t size = 4 * 1024)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = size;
    p.assoc = assoc;
    p.latency = 3;
    p.policy = PolicyKind::LRU;
    return p;
}

TEST(Cache, GeometryDerivation)
{
    Cache c(smallParams(4, 4 * 1024)); // 64 lines / 4 ways
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.assoc(), 4u);
}

TEST(Cache, MissThenHit)
{
    Cache c(smallParams());
    MemAccess a = makeAccess(0x1000);
    EXPECT_FALSE(c.access(a));
    c.insert(a);
    EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, SameLineDifferentBytesHit)
{
    Cache c(smallParams());
    c.insert(makeAccess(0x1000));
    EXPECT_TRUE(c.access(makeAccess(0x103f)));
    EXPECT_FALSE(c.access(makeAccess(0x1040))); // next line
}

TEST(Cache, LruEvictionOrder)
{
    Cache c(smallParams(2, 2 * 64 * 4)); // 4 sets, 2 ways
    // Three lines mapping to the same set: set stride = 4 lines.
    Addr a0 = 0, a1 = 4 * 64, a2 = 8 * 64;
    c.insert(makeAccess(a0));
    c.insert(makeAccess(a1));
    c.access(makeAccess(a0)); // a0 becomes MRU
    Eviction ev = c.insert(makeAccess(a2));
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a1); // LRU victim
    EXPECT_TRUE(c.contains(a0));
    EXPECT_FALSE(c.contains(a1));
    EXPECT_TRUE(c.contains(a2));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c(smallParams(1, 64 * 2)); // 2 sets, direct-mapped
    c.insert(makeAccess(0x0, false, true)); // store-allocate: dirty
    Eviction ev = c.insert(makeAccess(2 * 64)); // same set
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().writebacksOut, 1u);
}

TEST(Cache, StoreHitSetsDirty)
{
    Cache c(smallParams(1, 64 * 2));
    c.insert(makeAccess(0x0));
    EXPECT_TRUE(c.access(makeAccess(0x0, false, true)));
    Eviction ev = c.insert(makeAccess(2 * 64));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
}

TEST(Cache, InvalidateReturnsDirtyState)
{
    Cache c(smallParams());
    c.insert(makeAccess(0x1000, false, true));
    EXPECT_TRUE(c.invalidate(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000)); // already gone
}

TEST(Cache, InstrBitTracked)
{
    Cache c(smallParams(1, 64 * 2));
    c.insert(makeAccess(0x0, /*instr=*/true));
    Eviction ev = c.insert(makeAccess(2 * 64));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.isInstr);
    EXPECT_EQ(c.stats().instrEvictions, 1u);
}

TEST(Cache, PrefetchBitClearedOnDemandHit)
{
    Cache c(smallParams());
    MemAccess pf = makeAccess(0x1000);
    pf.isPrefetch = true;
    c.insert(pf);
    EXPECT_EQ(c.stats().prefetchInserts, 1u);
    EXPECT_TRUE(c.access(makeAccess(0x1000)));
    EXPECT_EQ(c.stats().prefetchUseful, 1u);
    // Second demand hit does not double count.
    EXPECT_TRUE(c.access(makeAccess(0x1000)));
    EXPECT_EQ(c.stats().prefetchUseful, 1u);
}

TEST(Cache, PrefetchAccessDoesNotCountStats)
{
    Cache c(smallParams());
    MemAccess pf = makeAccess(0x1000);
    pf.isPrefetch = true;
    EXPECT_FALSE(c.access(pf));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(Cache, PendingMergeReportsReadyTime)
{
    Cache c(smallParams());
    c.addPending(0x1000, 500);
    EXPECT_EQ(c.pendingReady(0x1000, 100), 500u);
    EXPECT_EQ(c.stats().mshrMerges, 1u);
    // After the ready time the entry is pruned.
    EXPECT_EQ(c.pendingReady(0x1000, 600), 0u);
    EXPECT_EQ(c.pendingReady(0x1000, 700), 0u);
}

TEST(Cache, MshrsFullDetection)
{
    CacheParams p = smallParams();
    p.mshrs = 2;
    Cache c(p);
    c.addPending(0x1000, 1000);
    EXPECT_FALSE(c.mshrsFull(0));
    c.addPending(0x2000, 1000);
    EXPECT_TRUE(c.mshrsFull(0));
    // Completed fills free MSHRs.
    EXPECT_FALSE(c.mshrsFull(2000));
}

/**
 * Obviously-correct MSHR book: line → ready cycle in a std::map, with
 * Cache's pending-fill semantics spelled out one rule per method.
 */
struct RefMshrBook
{
    std::map<Addr, Cycle> fills;
    std::size_t mshrs = 0;

    Cycle
    raw(Addr key) const
    {
        auto it = fills.find(key);
        return it == fills.end() ? 0 : it->second;
    }

    void
    prune(Cycle now)
    {
        for (auto it = fills.begin(); it != fills.end();)
            it = it->second <= now ? fills.erase(it) : std::next(it);
    }

    /** Cache::pendingReady: an expired entry is erased on sight. */
    Cycle
    pendingReady(Addr key, Cycle now)
    {
        Cycle ready = raw(key);
        if (ready != 0 && ready <= now) {
            fills.erase(key);
            return 0;
        }
        return ready;
    }

    /** Cache::mshrsFull: prunes at @p now only when the book is full. */
    bool
    mshrsFull(Cycle now)
    {
        if (fills.size() < mshrs)
            return false;
        prune(now);
        return fills.size() >= mshrs;
    }
};

TEST(Cache, MshrBookMatchesMapReferenceUnderSkewedClocks)
{
    // Two books in lockstep with one reference each over one random op
    // stream: the bare PendingTable (set/get/erase/prune/retire) and a
    // Cache's MSHR interface (addPending/pendingReady/mshrsFull/
    // retireFills).  Query clocks lead a monotone floor by a random
    // skew, as cores do in the simulator, and the floor is retired
    // every 1024 cycles of advance, as Simulator::runWindow does.
    constexpr std::uint32_t kMshrs = 8;
    constexpr std::uint32_t kLines = 512;
    constexpr std::uint32_t kSkew = 2000;
    constexpr std::uint32_t kMaxLatency = 600;
    CacheParams p = smallParams();
    p.mshrs = kMshrs;
    Cache cache(p);
    PendingTable table(kMshrs);
    RefMshrBook ref_table;
    RefMshrBook ref_cache;
    ref_cache.mshrs = kMshrs;

    Pcg32 rng(0x5eed);
    Cycle floor = 0;
    Cycle retired = 0;
    for (int op = 0; op < 1000000; ++op) {
        floor += rng.nextBounded(4);
        if (floor >= retired + 1024) {
            retired = floor;
            table.pruneExpired(floor);
            ref_table.prune(floor);
            cache.retireFills(floor);
            ref_cache.prune(floor);
            ASSERT_EQ(table.size(), ref_table.fills.size()) << "op " << op;
        }
        Cycle now = floor + rng.nextBounded(kSkew);
        Addr key = rng.nextBounded(kLines);
        Addr line_addr = key << kLineShift;
        std::uint32_t kind = rng.nextBounded(100);
        if (kind < 40) {
            Cycle ready = now + 1 + rng.nextBounded(kMaxLatency);
            table.set(key, ready);
            ref_table.fills[key] = ready;
            cache.addPending(line_addr, ready, now);
            ref_cache.fills[key] = ready;
        } else if (kind < 70) {
            ASSERT_EQ(table.get(key), ref_table.raw(key)) << "op " << op;
            ASSERT_EQ(cache.pendingReady(line_addr, now),
                      ref_cache.pendingReady(key, now))
                << "op " << op;
        } else if (kind < 75) {
            table.erase(key);
            ref_table.fills.erase(key);
        } else {
            table.pruneExpired(now);
            ref_table.prune(now);
            ASSERT_EQ(table.size(), ref_table.fills.size()) << "op " << op;
            ASSERT_EQ(cache.mshrsFull(now), ref_cache.mshrsFull(now))
                << "op " << op;
        }
    }
}

TEST(Cache, RetireFillsSkipsContentionModelledBanks)
{
    // Three fills on a 3-MSHR book.  Retiring the first at floor 120
    // shrinks the book below the MSHR count, so a leading core's
    // mshrsFull() at 160 no longer prunes — and a lagging core at 130
    // (still above the floor) merges with fill B, which the prune
    // would have hidden.  That is harmless where mshrsFull() sees one
    // core's monotone clock (L1s) or is never called (L2s, uncontended
    // LLC banks), but a contention-modelled LLC bank runs mshrsFull()
    // for every core, so it keeps its book and its old answers.
    auto lagging_merge = [](bool contention, bool retire) {
        CacheParams p = smallParams();
        p.mshrs = 3;
        if (contention)
            p.bankServiceCycles = 4;
        Cache c(p);
        c.addPending(0x1000, 100, 50);  // A
        c.addPending(0x2000, 150, 50);  // B
        c.addPending(0x3000, 400, 50);  // C
        if (retire)
            c.retireFills(120);
        EXPECT_FALSE(c.mshrsFull(160));
        return c.pendingReady(0x2000, 130);
    };
    EXPECT_EQ(lagging_merge(false, false), 0u);
    EXPECT_EQ(lagging_merge(false, true), 150u);
    EXPECT_EQ(lagging_merge(true, false), 0u);
    EXPECT_EQ(lagging_merge(true, true), 0u);
}

TEST(Cache, OracleInstrAlwaysHitsAfterFirstTouch)
{
    CacheParams p = smallParams();
    p.instrOracle = true;
    Cache c(p);
    MemAccess i = makeAccess(0x5000, /*instr=*/true);
    EXPECT_FALSE(c.access(i)); // first touch misses
    EXPECT_TRUE(c.access(i));  // always hits afterwards
    EXPECT_TRUE(c.access(i));
    // And consumes no array capacity.
    c.insert(i);
    EXPECT_FALSE(c.contains(0x5000));
}

TEST(Cache, OracleDataUnaffected)
{
    CacheParams p = smallParams();
    p.instrOracle = true;
    Cache c(p);
    MemAccess d = makeAccess(0x5000);
    EXPECT_FALSE(c.access(d));
    c.insert(d);
    EXPECT_TRUE(c.access(d));
}

TEST(Cache, PartitionSeparatesClasses)
{
    CacheParams p = smallParams(4, 4 * 64 * 1); // 1 set, 4 ways
    p.instrPartitionWays = 2;
    Cache c(p);
    // Fill instruction region (ways 0-1).
    c.insert(makeAccess(0 * 64, true));
    c.insert(makeAccess(1 * 64, true));
    // Fill data region (ways 2-3).
    c.insert(makeAccess(2 * 64, false));
    c.insert(makeAccess(3 * 64, false));
    // A new data line must evict a data line, not an instruction.
    Eviction ev = c.insert(makeAccess(4 * 64, false));
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.isInstr);
    // A new instruction line must evict an instruction line.
    ev = c.insert(makeAccess(5 * 64, true));
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.isInstr);
}

TEST(Cache, PartitionCriticalFilterRoutesNonCriticalToData)
{
    CacheParams p = smallParams(4, 4 * 64 * 1);
    p.instrPartitionWays = 2;
    p.partitionCriticalOnly = true;
    Cache c(p);
    c.insert(makeAccess(2 * 64, false));
    c.insert(makeAccess(3 * 64, false));
    // Non-critical instruction competes with data ways.
    Eviction ev = c.insert(makeAccess(6 * 64, true), false,
                           /*critical=*/false);
    ASSERT_TRUE(ev.valid);
    EXPECT_FALSE(ev.isInstr);
    EXPECT_EQ(c.stats().partitionInstrInserts, 0u);
    // Critical instruction claims the instruction region.
    ev = c.insert(makeAccess(7 * 64, true), false, /*critical=*/true);
    EXPECT_EQ(c.stats().partitionInstrInserts, 1u);
}

/** Companion that protects one specific line address. */
class OneLineProtector : public LlcCompanion
{
  public:
    explicit OneLineProtector(Addr line) : target(line) {}

    void observeAccess(const MemAccess &, bool, Cycle) override {}
    bool
    shouldProtect(Addr victim) override
    {
        ++queries;
        return victim == target;
    }
    void instrMissPrefetch(Addr, std::vector<Addr> &) override {}
    void observeInsert(Addr, bool, bool) override { ++inserts; }
    void observeEvict(Addr, bool) override { ++evicts; }
    unsigned maxProtectAttempts() const override { return 2; }
    Cycle queryCost() const override { return 1; }

    Addr target;
    int queries = 0;
    int inserts = 0;
    int evicts = 0;
};

TEST(Cache, QbsProtectionRedirectsEviction)
{
    CacheParams p = smallParams(2, 2 * 64 * 1); // 1 set, 2 ways
    Cache c(p);
    OneLineProtector guard(0 * 64);
    c.setCompanion(&guard);
    c.insert(makeAccess(0 * 64, true));  // protected line, will be LRU
    c.insert(makeAccess(1 * 64, true));
    Eviction ev = c.insert(makeAccess(2 * 64, false));
    ASSERT_TRUE(ev.valid);
    // LRU would pick line 0; QBS protects it, so line 1 goes.
    EXPECT_EQ(ev.lineAddr, Addr{1 * 64});
    EXPECT_TRUE(c.contains(0));
    EXPECT_GE(guard.queries, 1);
    EXPECT_EQ(c.stats().qbsProtections, 1u);
    EXPECT_GT(c.drainQbsCycles(), 0u);
}

TEST(Cache, QbsMaxAttemptsBoundsProtection)
{
    CacheParams p = smallParams(4, 4 * 64 * 1); // 1 set, 4 ways
    Cache c(p);
    // Protect everything: after maxProtectAttempts (2) promotions the
    // next candidate is evicted regardless.
    class ProtectAll : public OneLineProtector
    {
      public:
        ProtectAll() : OneLineProtector(0) {}
        bool
        shouldProtect(Addr) override
        {
            ++queries;
            return true;
        }
    } guard;
    c.setCompanion(&guard);
    for (Addr i = 0; i < 4; ++i)
        c.insert(makeAccess(i * 64, true));
    Eviction ev = c.insert(makeAccess(4 * 64, true));
    EXPECT_TRUE(ev.valid); // something was still evicted
    EXPECT_EQ(guard.queries, 2);
}

TEST(Cache, QbsNotConsultedForDataVictims)
{
    CacheParams p = smallParams(1, 64 * 1); // direct mapped, 1 set
    Cache c(p);
    OneLineProtector guard(0);
    guard.target = 0;
    c.setCompanion(&guard);
    c.insert(makeAccess(0 * 64, false)); // data line
    c.insert(makeAccess(1 * 64, false));
    EXPECT_EQ(guard.queries, 0);
}

TEST(Cache, CompanionSeesInsertsAndEvicts)
{
    CacheParams p = smallParams(1, 64 * 1);
    Cache c(p);
    OneLineProtector guard(~Addr{0});
    c.setCompanion(&guard);
    c.insert(makeAccess(0 * 64));
    c.insert(makeAccess(1 * 64));
    EXPECT_EQ(guard.inserts, 2);
    EXPECT_EQ(guard.evicts, 1);
}

TEST(Cache, InsertExistingLineMergesDirty)
{
    Cache c(smallParams());
    c.insert(makeAccess(0x1000));
    Eviction ev = c.insert(makeAccess(0x1000), /*dirty=*/true);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(c.invalidate(0x1000)); // was dirty
}

TEST(Cache, RejectsBadGeometry)
{
    CacheParams p = smallParams();
    p.instrPartitionWays = p.assoc; // no data ways left
    EXPECT_EXIT({ Cache c(p); }, testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace garibaldi
