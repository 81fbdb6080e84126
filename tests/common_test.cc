/**
 * @file
 * Unit tests for the common substrate: RNG determinism, Zipf sampling,
 * saturating counters, histograms, stats registry and stat kinds,
 * integer math, table printing and CLI parsing.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/cli.hh"
#include "common/histogram.hh"
#include "common/intmath.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "common/types.hh"
#include "sim/metrics.hh"

namespace garibaldi
{
namespace
{

TEST(Types, LineHelpers)
{
    EXPECT_EQ(lineAlign(0x1234), 0x1200u);
    EXPECT_EQ(lineNumber(0x1234), 0x48u);
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
    EXPECT_EQ(pageOffset(0x12345), 0x345u);
    EXPECT_EQ(lineInPage(0x12345), 0x345u >> 6);
}

TEST(Types, LineInPageIsSixBits)
{
    for (Addr a = 0; a < 4 * kPageBytes; a += 64)
        EXPECT_LT(lineInPage(a), 64u);
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(12));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
    EXPECT_EQ(divCeil(10, 3), 4u);
}

TEST(IntMath, Mix64Spreads)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Rng, Deterministic)
{
    Pcg32 a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Pcg32 a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedInRange)
{
    Pcg32 rng(1, 1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversRange)
{
    Pcg32 rng(3, 3);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ChanceExtremes)
{
    Pcg32 rng(5, 5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Pcg32 rng(7, 7);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Zipf, UniformWhenAlphaZero)
{
    Pcg32 rng(11, 11);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 5000, 600);
}

TEST(Zipf, SkewPrefersLowRanks)
{
    Pcg32 rng(13, 13);
    ZipfSampler z(1000, 1.0);
    std::uint64_t low = 0, high = 0;
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t r = z.sample(rng);
        ASSERT_LT(r, 1000u);
        if (r < 10)
            ++low;
        if (r >= 500)
            ++high;
    }
    EXPECT_GT(low, high);
    EXPECT_GT(low, 10000u); // rank<10 gets a large share at alpha=1
}

TEST(Zipf, SingletonPopulation)
{
    Pcg32 rng(17, 17);
    ZipfSampler z(1, 1.2);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

TEST(Feistel, IsPermutation)
{
    std::set<std::uint64_t> seen;
    const std::uint64_t n = 1000;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t y = feistelPermute(i, n, 0xabcd);
        ASSERT_LT(y, n);
        seen.insert(y);
    }
    EXPECT_EQ(seen.size(), n);
}

TEST(Feistel, KeyChangesPermutation)
{
    int same = 0;
    for (std::uint64_t i = 0; i < 256; ++i)
        same += feistelPermute(i, 256, 1) == feistelPermute(i, 256, 2);
    EXPECT_LT(same, 32);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(3, 0);
    for (int i = 0; i < 20; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 7u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(3, 7);
    for (int i = 0; i < 20; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, IsSetAtMidpoint)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.isSet()); // 0
    c.increment();
    EXPECT_FALSE(c.isSet()); // 1
    c.increment();
    EXPECT_TRUE(c.isSet()); // 2
}

TEST(SatCounter, ClampedConstruction)
{
    SatCounter c(2, 100);
    EXPECT_EQ(c.value(), 3u);
}

TEST(Histogram, MeanAndPercentiles)
{
    Histogram h(1, 100);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_NEAR(h.mean(), 49.5, 0.01);
    EXPECT_NEAR(h.percentile(0.5), 50, 1);
    EXPECT_EQ(h.maxValue(), 99u);
    EXPECT_EQ(h.count(), 100u);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(10, 4);
    h.add(1000);
    EXPECT_EQ(h.buckets().back(), 1u);
    EXPECT_EQ(h.maxValue(), 1000u);
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a(1, 10), b(1, 10);
    a.add(1);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h(1, 10);
    h.add(4, 10);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_NEAR(h.mean(), 4.0, 1e-9);
}

TEST(Stats, AddGetOverwrite)
{
    StatSet s;
    s.add("a", 1);
    s.add("b", 2);
    s.add("a", 3);
    EXPECT_EQ(s.get("a"), 3);
    EXPECT_EQ(s.get("b"), 2);
    EXPECT_EQ(s.entries().size(), 2u);
    EXPECT_TRUE(s.has("a"));
    EXPECT_FALSE(s.has("c"));
}

TEST(Stats, PrefixedMerge)
{
    StatSet inner;
    inner.add("x", 5);
    StatSet outer;
    outer.addAll("pre.", inner);
    EXPECT_EQ(outer.get("pre.x"), 5);
}

TEST(StatKinds, DefaultIsCounterAndKindsAreKept)
{
    StatSet s;
    s.add("reads", 4);
    s.add("threshold", 7, statkind::gauge);
    s.add("hit_rate", 0.5, statkind::rate("hits", "accesses"));
    EXPECT_EQ(s.kind("reads"), StatKind::Counter);
    EXPECT_EQ(s.kind("threshold"), StatKind::Gauge);
    EXPECT_EQ(s.kind("hit_rate"), StatKind::Rate);
    EXPECT_STREQ(s.semantics(2).num, "hits");
    EXPECT_STREQ(s.semantics(2).den, "accesses");
}

TEST(StatKinds, SurviveOverwriteAddAllAndWindowing)
{
    StatSet before, after;
    for (StatSet *s : {&before, &after}) {
        s->add("g", s == &before ? 9 : 3, statkind::gauge);
        s->add("q_p99", s == &before ? 80 : 60, statkind::quantile);
        s->add("h", s == &before ? 1.5 : 2.5, statkind::histogram_summary);
        s->add("n", s == &before ? 10 : 30);
    }
    after.add("g", 4, statkind::gauge); // overwrite keeps the kind
    EXPECT_EQ(after.kind("g"), StatKind::Gauge);
    EXPECT_DOUBLE_EQ(after.get("g"), 4.0);
    EXPECT_EQ(after.entries().size(), 4u);

    StatSet outer;
    outer.addAll("pre.", after);
    EXPECT_EQ(outer.kind("pre.g"), StatKind::Gauge);
    EXPECT_EQ(outer.kind("pre.q_p99"), StatKind::Quantile);
    EXPECT_EQ(outer.kind("pre.h"), StatKind::HistogramSummary);
    EXPECT_EQ(outer.kind("pre.n"), StatKind::Counter);

    for (const StatSet &d : {subtractCounters(after, before),
                             windowedStatDelta(after, before)}) {
        // Gauges, quantiles and histogram summaries keep their last
        // reading, even below the previous snapshot; counters subtract.
        EXPECT_DOUBLE_EQ(d.get("g"), 4.0);
        EXPECT_DOUBLE_EQ(d.get("q_p99"), 60.0);
        EXPECT_DOUBLE_EQ(d.get("h"), 2.5);
        EXPECT_DOUBLE_EQ(d.get("n"), 20.0);
        EXPECT_EQ(d.kind("g"), StatKind::Gauge);
        EXPECT_EQ(d.kind("q_p99"), StatKind::Quantile);
        EXPECT_EQ(d.kind("h"), StatKind::HistogramSummary);
        EXPECT_EQ(d.kind("n"), StatKind::Counter);
    }
}

TEST(StatKinds, NestedPrefixRateRecomputesFromItsOwnInputs)
{
    // Two banks with different traffic plus an aggregate: each
    // llc.bank<i>.hit_rate must recompute from its own bank's windowed
    // counters, never from the aggregate's or a sibling's.
    auto bank = [](double hits, double accesses) {
        StatSet b;
        b.add("hits", hits);
        b.add("accesses", accesses);
        b.add("hit_rate", hits / accesses,
              statkind::rate("hits", "accesses"));
        return b;
    };
    auto hierarchy = [&](double scale) {
        StatSet llc;
        llc.addAll("", bank(30 * scale, 100 * scale));
        llc.addAll("bank0.", bank(10 * scale, 20 * scale));
        llc.addAll("bank1.", bank(20 * scale, 80 * scale));
        StatSet s;
        s.addAll("llc.", llc);
        return s;
    };
    StatSet before = hierarchy(1), after = hierarchy(3);
    // Poison the cumulative ratios: the window must not read them.
    after.add("llc.bank0.hit_rate", 99, statkind::rate("hits", "accesses"));
    StatSet d = windowedStatDelta(after, before);
    EXPECT_DOUBLE_EQ(d.get("llc.bank0.hit_rate"), 20.0 / 40.0);
    EXPECT_DOUBLE_EQ(d.get("llc.bank1.hit_rate"), 40.0 / 160.0);
    EXPECT_DOUBLE_EQ(d.get("llc.hit_rate"), 60.0 / 200.0);
}

TEST(StatKindsDeath, ReAddWithDifferentKindIsFatal)
{
    EXPECT_EXIT(
        {
            StatSet s;
            s.add("threshold", 1, statkind::gauge);
            s.add("threshold", 2);
        },
        testing::ExitedWithCode(1), "re-added as counter, was gauge");
    EXPECT_EXIT(
        {
            StatSet inner;
            StatSet outer;
            inner.add("x", 1, statkind::quantile);
            outer.add("pre.x", 1);
            outer.addAll("pre.", inner);
        },
        testing::ExitedWithCode(1), "one name, one kind");
    // A rate re-added with other inputs is a different kind too.
    constexpr StatSemantics a_over_b = statkind::rate("a", "b");
    constexpr StatSemantics a_over_c = statkind::rate("a", "c");
    EXPECT_EXIT(
        {
            StatSet s;
            s.add("r", 1, a_over_b);
            s.add("r", 1, a_over_c);
        },
        testing::ExitedWithCode(1), "stat 'r' re-added as rate");
}

TEST(TablePrinter, AlignedOutput)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string text = t.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "a,b\n1,2\n");
}

TEST(TablePrinter, Formatting)
{
    EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
    EXPECT_EQ(TablePrinter::pct(0.123, 1), "+12.3%");
    EXPECT_EQ(TablePrinter::pct(-0.05, 1), "-5.0%");
}

TEST(Cli, ParsesAllForms)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    p.addDouble("f", 1.5, "factor");
    p.addString("s", "x", "name");
    p.addFlag("v", "verbose");
    const char *argv[] = {"prog", "--n", "10", "--f=2.5", "--v",
                          "--s", "hello"};
    p.parse(7, argv);
    EXPECT_EQ(p.getInt("n"), 10);
    EXPECT_DOUBLE_EQ(p.getDouble("f"), 2.5);
    EXPECT_EQ(p.getString("s"), "hello");
    EXPECT_TRUE(p.getFlag("v"));
}

TEST(Cli, DefaultsSurvive)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_EQ(p.getInt("n"), 5);
}

TEST(Cli, IntegersParseWholeStringInAnyBase)
{
    ArgParser p("test");
    p.addInt("n", 5, "count");
    p.addInt("d", 0, "delta");
    const char *argv[] = {"prog", "--n=0x10", "--d", "-3"};
    p.parse(4, argv);
    EXPECT_EQ(p.getInt("n"), 16);
    EXPECT_EQ(p.getInt("d"), -3); // signed options stay signed
    EXPECT_EQ(p.getCount("n"), 16u);
}

TEST(CliDeathTest, RejectsNonIntegerValue)
{
    ArgParser p("test");
    p.addInt("instr", 5, "count");
    const char *argv[] = {"prog", "--instr", "abc"};
    EXPECT_EXIT(p.parse(3, argv), testing::ExitedWithCode(1),
                "error: --instr expects an integer, got 'abc'");
}

TEST(CliDeathTest, RejectsTrailingText)
{
    ArgParser p("test");
    p.addInt("cores", 8, "count");
    const char *argv[] = {"prog", "--cores=4x"};
    EXPECT_EXIT(p.parse(2, argv), testing::ExitedWithCode(1),
                "--cores expects an integer, got '4x'");
}

TEST(CliDeathTest, RejectsEmptyAndOutOfRangeValues)
{
    ArgParser p("test");
    p.addInt("seed", 1, "seed");
    const char *empty[] = {"prog", "--seed="};
    EXPECT_EXIT(p.parse(2, empty), testing::ExitedWithCode(1),
                "--seed expects an integer, got ''");
    const char *huge[] = {"prog", "--seed", "99999999999999999999"};
    EXPECT_EXIT(p.parse(3, huge), testing::ExitedWithCode(1),
                "--seed expects an integer, got '99999999999999999999'");
}

TEST(CliDeathTest, CountRejectsNegative)
{
    ArgParser p("test");
    p.addInt("warmup", 10, "count");
    const char *argv[] = {"prog", "--warmup", "-5"};
    p.parse(3, argv);
    EXPECT_EQ(p.getInt("warmup"), -5);
    EXPECT_EXIT(p.getCount("warmup"), testing::ExitedWithCode(1),
                "--warmup must be >= 0 \\(got -5\\)");
}

} // namespace
} // namespace garibaldi
