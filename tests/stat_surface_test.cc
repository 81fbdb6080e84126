/**
 * @file
 * The stat contract, pinned from the running code.  Builds one small
 * system with every knob off and one with every gated model on
 * (bank contention, DRAM row/turnaround/refresh/timing, DRAM-fed
 * MSHRs, Garibaldi helpers, tracing, telemetry), walks every
 * producer's StatSet and checks that:
 *
 *  - names match kinds: *_rate and avg_* names are rates, and
 *    _p50/_p90/_p95/_p99 names are quantiles (and the reverse);
 *  - every rate's input counters are present, as counters, in the
 *    same set, so the windowed recompute never reads a missing name;
 *  - the (name, kind) list of both surfaces is byte-identical to
 *    scripts/goldens/stat_surface.txt.  A gated stat leaking into the
 *    knobs-off surface, a renamed stat and a changed kind all show up
 *    as a diff.
 *
 * On a golden mismatch the live dump is written to stat_surface.actual.txt in the working
 * directory; when the change is intended, copy it over the golden.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/stats.hh"
#include "garibaldi/garibaldi.hh"
#include "obs/obs.hh"
#include "sim/energy.hh"
#include "sim/monitors.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"

namespace garibaldi
{
namespace
{

const char *const kTelemetryOut = "stat_surface_telemetry.jsonl";

SystemConfig
surfaceConfig(bool all_on)
{
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    if (!all_on)
        return cfg;
    cfg.llcBanks = 2;
    cfg.llcBankServiceCycles = 4;
    cfg.llcBankPorts = 1;
    cfg.dram.rowBits = 7;
    cfg.dram.turnaroundCycles = 12;
    cfg.dram.refreshIntervalCycles = 11700;
    cfg.dram.refreshPenaltyCycles = 885;
    cfg.dramFedLlcMshrs = true;
    cfg.garibaldiEnabled = true;
    cfg.obs.traceSample = 16;
    cfg.obs.telemetryWindow = 4000;
    cfg.obs.telemetryOut = kTelemetryOut;
    return cfg;
}

void
expectSameKinds(const StatSet &live, const StatSet &windowed)
{
    ASSERT_EQ(live.entries().size(), windowed.entries().size());
    for (std::size_t i = 0; i < live.entries().size(); ++i) {
        const std::string &name = live.entries()[i].first;
        ASSERT_TRUE(windowed.has(name)) << name;
        EXPECT_EQ(windowed.kind(name), live.semantics(i).kind) << name;
    }
}

/** Every producer's live stats, one addAll prefix per producer. */
StatSet
surface(bool all_on)
{
    SystemConfig cfg = surfaceConfig(all_on);
    System sys(cfg, randomServerMix(7, 2));
    ReuseDistanceMonitor reuse(sys.hierarchy().llc().totalSets(), 0);
    LineFrequencyMonitor freq;
    PairingMonitor pairing;
    BankQueueMonitor bankq(cfg.llcBanks, cfg.llcBankInterleaveShift);
    sys.hierarchy().addLlcListener(&reuse);
    sys.hierarchy().addLlcListener(&freq);
    sys.hierarchy().addLlcListener(&pairing);
    sys.hierarchy().addLlcListener(&bankq);
    SimResult r = Simulator(sys).run(2000, 8000);
    std::remove(kTelemetryOut);

    StatSet s;
    s.addAll("", sys.hierarchy().stats());
    if (sys.garibaldi())
        s.addAll("garibaldi.", sys.garibaldi()->stats());
    s.addAll("tlb.", sys.core(0).tlbs().stats());
    s.addAll("branch.", sys.core(0).branchPredictor().stats());
    s.addAll("", r.obs); // ObsSubsystem names already carry "obs."
    s.addAll("energy.", computeEnergy(r, cfg).toStatSet());
    s.addAll("reuse.", reuse.stats());
    s.addAll("freq.", freq.stats());
    s.addAll("pairing.", pairing.stats());
    s.addAll("bankq.", bankq.stats());

    // The windowed results carry the live kinds through
    // subtractCounters and the rate recompute.
    expectSameKinds(sys.hierarchy().stats(), r.mem);
    if (sys.garibaldi())
        expectSameKinds(sys.garibaldi()->stats(), r.garibaldi);
    return s;
}

std::string
kindOf(const StatSemantics &sem)
{
    std::string k = statKindName(sem.kind);
    if (sem.kind == StatKind::Rate)
        k += std::string("(") + sem.num + " / " + sem.den + ")";
    return k;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
hasQuantileSuffix(const std::string &name)
{
    for (const char *sfx : {"_p50", "_p90", "_p95", "_p99"})
        if (endsWith(name, sfx))
            return true;
    return false;
}

bool
namedLikeRate(const std::string &name)
{
    std::size_t dot = name.rfind('.');
    std::string last = dot == std::string::npos ? name
                                                : name.substr(dot + 1);
    return endsWith(name, "_rate") || last.rfind("avg_", 0) == 0;
}

/** Names-match-kinds and rate-input checks over one surface. */
void
checkSurface(const StatSet &s, const char *label)
{
    for (std::size_t i = 0; i < s.entries().size(); ++i) {
        const std::string &name = s.entries()[i].first;
        const StatSemantics &sem = s.semantics(i);
        EXPECT_EQ(hasQuantileSuffix(name), sem.kind == StatKind::Quantile)
            << label << ": " << name << " is " << kindOf(sem)
            << "; _p50/_p90/_p95/_p99 names and quantiles go together";
        // The one named exception: an EMA-smoothed point-in-time
        // reading of the miss rate, not a counter-derived ratio to
        // recompute per window.
        if (namedLikeRate(name) &&
            !endsWith(name, "threshold.last_llc_miss_rate")) {
            EXPECT_EQ(sem.kind, StatKind::Rate)
                << label << ": " << name << " is named like a rate but is "
                << kindOf(sem);
        }
        if (sem.kind != StatKind::Rate)
            continue;
        std::string prefix = s.prefixOf(i);
        for (const char *expr : {sem.num, sem.den}) {
            std::istringstream toks(expr);
            std::string tok;
            while (std::getline(toks, tok, '+')) {
                std::string input = prefix + tok;
                ASSERT_TRUE(s.has(input))
                    << label << ": rate " << name << " reads absent "
                    << input;
                EXPECT_EQ(s.kind(input), StatKind::Counter)
                    << label << ": rate " << name << " reads " << input
                    << ", which is not a counter";
            }
        }
    }
}

std::string
dump(const StatSet &s)
{
    std::string out;
    for (std::size_t i = 0; i < s.entries().size(); ++i)
        out += s.entries()[i].first + " " + kindOf(s.semantics(i)) + "\n";
    return out;
}

TEST(StatSurface, NamesKindsAndRateInputsAgree)
{
    checkSurface(surface(false), "knobs-off");
    checkSurface(surface(true), "all-on");
}

TEST(StatSurface, MatchesGolden)
{
    std::string actual = "# knobs-off\n" + dump(surface(false)) +
                         "# all-on\n" + dump(surface(true));
    std::string here = __FILE__;
    std::string path = here.substr(0, here.rfind('/')) +
                       "/../scripts/goldens/stat_surface.txt";
    std::stringstream golden;
    golden << std::ifstream(path).rdbuf();
    if (golden.str() != actual) {
        std::ofstream("stat_surface.actual.txt") << actual;
        FAIL() << "stat surface drifted from " << path
               << "; the live dump is in stat_surface.actual.txt";
    }
}

} // namespace
} // namespace garibaldi
