/**
 * @file
 * The repository benchmark: one workload, one seed, a fixed measuring
 * time.  Single process, single thread, public simulator API only.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 repeats the workload's whole pass (catalog, mix draw,
 * System construction, Simulator::run for every config) until S
 * seconds have passed and reports the medians of the end-to-end
 * metrics.  --trace 1 alternates untraced and traced runs of the
 * workload's headline config and reports the per-layer metrics (see
 * layer_trace.hh).  Both check the simulated output; the last line of
 * stdout is one JSON object: correct, attempted, failed, metrics.
 * README.md in this directory describes the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/layer_trace.hh"
#include "common/rng.hh"
#include "sim/experiment.hh"
#include "workloads/catalog.hh"
#include "workloads/mix.hh"

using namespace garibaldi;
using perfbench::EndState;
using perfbench::LayerTimes;
using perfbench::SpanCost;
using perfbench::TracedRun;

namespace
{

/** Seed whose digests every traced run prints; never a tuning seed. */
constexpr std::uint64_t kHeldOutSeed = 7919;

/** Fewest passes a --trace 0 run measures, whatever --seconds says. */
constexpr int kMinPasses = 3;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- workloads -------------------------------------------------------

/** A workload: a mix and the configs its pass runs, last = headline. */
struct Workload
{
    const char *name;
    std::uint32_t cores;
    std::uint64_t warmup;   //!< instructions per core
    std::uint64_t detailed; //!< instructions per core
    Mix (*drawMix)(std::uint64_t seed);
    std::vector<SystemConfig> (*configs)(std::uint64_t seed);
};

/**
 * Every workload of @p names on one core each, in a seed-shuffled core
 * order.  The seed moves placement (and so L2-cluster sharing) and the
 * streams, never the mix's composition: a with-replacement draw made
 * the per-seed speed spread of the SPEC mix 13 % (interquartile, five
 * seeds), wider than any bound a regression gate can use.
 */
Mix
shuffledMix(const char *name, const std::vector<std::string> &names,
            std::uint64_t seed)
{
    std::vector<std::string> slots = names;
    Pcg32 rng(seed, 0x9e3779b9);
    for (std::size_t i = slots.size(); i > 1; --i)
        std::swap(slots[i - 1],
                  slots[rng.nextBounded(static_cast<std::uint32_t>(i))]);
    return explicitMix(name + std::to_string(seed), slots);
}

SystemConfig
seeded(std::uint32_t cores, std::uint64_t seed)
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.seed = seed;
    return cfg;
}

const Workload kWorkloads[] = {
    {"server8_verilator", 8, 50000, 250000,
     [](std::uint64_t) { return homogeneousMix("verilator", 8); },
     [](std::uint64_t seed) {
         SystemConfig base = seeded(8, seed);
         return std::vector<SystemConfig>{
             configWithPolicy(base, PolicyKind::Mockingjay, false),
             configWithPolicy(base, PolicyKind::Mockingjay, true)};
     }},
    {"server16_banked", 16, 50000, 250000,
     [](std::uint64_t seed) {
         return shuffledMix("server16_", serverWorkloadNames(), seed);
     },
     [](std::uint64_t seed) {
         SystemConfig base = seeded(16, seed);
         base.llcBanks = 4;
         base.llcBankServiceCycles = 4;
         base.llcBankPorts = 1;
         base.dram.rowBits = 7;
         base.dram.turnaroundCycles = 12;
         base.dram.refreshIntervalCycles = 11700;
         base.dram.refreshPenaltyCycles = 885;
         base.dramFedLlcMshrs = true;
         return std::vector<SystemConfig>{
             configWithPolicy(base, PolicyKind::Hawkeye, true)};
     }},
    {"spec8_lru", 8, 50000, 250000,
     [](std::uint64_t seed) {
         return shuffledMix("spec8_", specWorkloadNames(), seed);
     },
     [](std::uint64_t seed) {
         return std::vector<SystemConfig>{
             configWithPolicy(seeded(8, seed), PolicyKind::LRU, false)};
     }},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

// ---- digests -----------------------------------------------------------

/** FNV-1a over bytes. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void
    stats(const StatSet &s)
    {
        for (const auto &[name, value] : s.entries()) {
            str(name);
            f64(value);
        }
    }
};

/** Hash of every simulated output of one run. */
std::uint64_t
resultDigest(const SimResult &r)
{
    Fnv f;
    f.stats(r.mem);
    f.stats(r.garibaldi);
    f.stats(r.tlb);
    for (const CoreResult &c : r.cores) {
        f.u64(c.instructions);
        f.u64(c.cycles);
        for (std::size_t i = 0; i < kNumCpiComponents; ++i)
            f.u64(c.cpi.of(static_cast<CpiComponent>(i)));
        f.u64(c.branches);
        f.u64(c.mispredicts);
        f.u64(c.loads);
        f.u64(c.stores);
        f.u64(c.ifetchLines);
    }
    return f.h;
}

/** Hash of what determines a run: config knobs, mix, run length. */
std::uint64_t
configDigest(const Workload &w, const SystemConfig &cfg, const Mix &mix)
{
    Fnv f;
    f.str(cfg.summary());
    f.u64(cfg.garibaldiEnabled);
    f.u64(cfg.llcBankServiceCycles);
    f.u64(cfg.dram.refreshPenaltyCycles);
    f.u64(cfg.dramFedLlcMshrs);
    f.u64(cfg.seed);
    for (const std::string &slot : mix.slots)
        f.str(slot);
    f.u64(w.warmup);
    f.u64(w.detailed);
    return f.h;
}

// ---- checks ----------------------------------------------------------

/** Counts checks; each failing one is a failed operation. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
    }
};

/**
 * Reads a stat through StatSet::has first, so a renamed or dropped
 * stat fails the run loudly instead of reading as zero.
 */
double
need(Checks &checks, const StatSet &s, const std::string &set,
     const std::string &name)
{
    bool present = s.has(name);
    checks.expect(present, "stat '" + set + "." + name + "' is missing");
    return present ? s.get(name) : 0.0;
}

/** Per-run sanity: every core retired exactly its detailed window. */
void
checkRun(Checks &checks, const Workload &w, const SimResult &r,
         const char *what)
{
    bool ok = r.cores.size() == w.cores;
    for (const CoreResult &c : r.cores)
        ok = ok && c.instructions == w.detailed && c.cycles > 0;
    checks.expect(ok, std::string(what) +
                          ": a core did not retire its detailed window");
}

// ---- one untraced pass -------------------------------------------------

struct Pass
{
    double setup = 0; //!< mix draw + System construction, all configs
    double sim = 0;   //!< inside Simulator::run, all configs
    double wall = 0;  //!< the whole pass
    double headWall = 0; //!< construction + run of the headline config
    std::vector<SimResult> results;
    std::vector<std::uint64_t> digests;
    std::vector<std::uint64_t> configHashes;
    EndState headEnd; //!< headline System at the end of its run
};

Pass
runPass(const Workload &w, std::uint64_t seed)
{
    Pass p;
    double start = nowSeconds();
    std::vector<SystemConfig> configs = w.configs(seed);
    p.setup = nowSeconds() - start;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        double t0 = nowSeconds();
        Mix mix = w.drawMix(seed);
        System sys(configs[i], mix);
        double t1 = nowSeconds();
        SimResult r = Simulator(sys).run(w.warmup, w.detailed);
        double t2 = nowSeconds();
        p.setup += t1 - t0;
        p.sim += t2 - t1;
        if (i + 1 == configs.size()) {
            p.headWall = t2 - t0;
            p.headEnd = EndState::capture(sys);
        }
        p.digests.push_back(resultDigest(r));
        p.configHashes.push_back(configDigest(w, configs[i], mix));
        p.results.push_back(std::move(r));
    }
    p.wall = nowSeconds() - start;
    return p;
}

// ---- output ------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &m : metrics)
        std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                checks.failed == 0 ? "true" : "false", checks.attempted,
                checks.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
gainPct(const Pass &p)
{
    if (p.results.size() < 2)
        return 0.0;
    return (p.results.back().ipcHarmonicMean() /
                p.results.front().ipcHarmonicMean() -
            1.0) * 100.0;
}

void
printPassDigests(const char *label, std::uint64_t seed, const Pass &p)
{
    for (std::size_t i = 0; i < p.digests.size(); ++i)
        std::printf("%s seed %" PRIu64 " config %zu: config %016" PRIx64
                    "  output %016" PRIx64 "\n",
                    label, seed, i, p.configHashes[i], p.digests[i]);
}

// ---- --trace 0 -------------------------------------------------------------

std::vector<Metric>
endToEnd(const Workload &w, std::uint64_t seed, double seconds,
         Checks &checks)
{
    std::vector<double> mips, wall, setup;
    std::vector<std::uint64_t> first;
    std::uint64_t instr = std::uint64_t{w.cores} * (w.warmup + w.detailed) *
                          w.configs(seed).size();
    double start = nowSeconds();
    Pass last;
    // A pass starts only if it should end inside the measuring time.
    for (int n = 0; n < kMinPasses ||
                    nowSeconds() - start + last.wall <= seconds; ++n) {
        Pass p = runPass(w, seed);
        for (const SimResult &r : p.results)
            checkRun(checks, w, r, "untraced run");
        if (n == 0) {
            first = p.digests;
            printPassDigests("digest", seed, p);
        } else {
            checks.expect(p.digests == first,
                          "two untraced runs of one seed disagree");
        }
        mips.push_back(static_cast<double>(instr) / p.sim * 1e-6);
        wall.push_back(p.wall);
        setup.push_back(p.setup);
        std::printf("pass %d: wall %.3f s  set-up %.4f s  sim %.3f s  "
                    "%.3f MIPS\n",
                    n, p.wall, p.setup, p.sim, mips.back());
        last = std::move(p);
    }
    double rss = peakRssMb();

    if (last.results.size() > 1)
        std::printf("modelled Garibaldi gain (hmean IPC, headline vs "
                    "baseline config): %+.4f %%  [paper fig11 geomean "
                    "MJ+G vs MJ: about +5.1 %%, context only; the model "
                    "is unvalidated for single workloads]\n",
                    gainPct(last));

    return {
        {"sim_mips", median(mips), "MIPS"},
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", rss, "MB"},
    };
}

// ---- --trace 1 -------------------------------------------------------------

std::vector<Metric>
perLayer(const Workload &w, std::uint64_t seed, double seconds,
         Checks &checks)
{
    SpanCost cost = SpanCost::calibrate();
    std::printf("span cost: empty %.1f ns, nested %.1f ns\n", cost.emptyNs,
                cost.nestedNs);

    double start = nowSeconds();
    Pass ref = runPass(w, seed);
    for (const SimResult &r : ref.results)
        checkRun(checks, w, r, "untraced run");
    printPassDigests("digest", seed, ref);
    const SystemConfig head = w.configs(seed).back();
    const SimResult &res = ref.results.back();

    std::vector<double> untraced{ref.headWall}, traced;
    std::vector<LayerTimes> layers;
    double round = ref.wall; // an untraced pass + a traced run, estimated
    for (int n = 0; n < 1 || nowSeconds() - start + round <= seconds; ++n) {
        if (n > 0) {
            Pass p = runPass(w, seed);
            checks.expect(p.digests == ref.digests,
                          "two untraced runs of one seed disagree");
            untraced.push_back(p.headWall);
        }
        double t0 = nowSeconds();
        System sys(head, w.drawMix(seed));
        TracedRun tr = perfbench::runTraced(sys, w.warmup, w.detailed, cost);
        traced.push_back(nowSeconds() - t0);
        round = ref.wall + traced.back();
        checkRun(checks, w, tr.result, "traced run");
        checks.expect(resultDigest(tr.result) == ref.digests.back(),
                      "traced result differs from the untraced one");
        std::vector<std::string> bad =
            perfbench::faithfulnessMismatches(tr, ref.headEnd);
        checks.expect(bad.empty(), "traced run is not faithful");
        for (const std::string &b : bad)
            std::fprintf(stderr, "perfbench:   mismatch: %s\n", b.c_str());
        layers.push_back(tr.times);
    }

    Pass held = runPass(w, kHeldOutSeed);
    for (const SimResult &r : held.results)
        checkRun(checks, w, r, "held-out run");
    printPassDigests("held-out digest", kHeldOutSeed, held);

    auto med = [&](double LayerTimes::*field) {
        std::vector<double> v;
        for (const LayerTimes &t : layers)
            v.push_back(t.*field);
        return median(v);
    };
    std::vector<double> mem_v;
    for (const LayerTimes &t : layers)
        mem_v.push_back(t.mem());
    const LayerTimes &cnt = layers.front(); // counts repeat exactly
    double fill = med(&LayerTimes::fill), step = med(&LayerTimes::step);
    double branch = med(&LayerTimes::branch), tlb = med(&LayerTimes::tlb);
    double gari = med(&LayerTimes::garibaldi), mem = median(mem_v);
    auto per = [](double s, double n) { return n > 0 ? s * 1e9 / n : 0.0; };

    // Detailed-window work counts, all cores merged.
    double instr = 0, ifetch = 0, branches = 0, mispred = 0, loads = 0,
           stores = 0;
    for (const CoreResult &c : res.cores) {
        instr += static_cast<double>(c.instructions);
        ifetch += static_cast<double>(c.ifetchLines);
        branches += static_cast<double>(c.branches);
        mispred += static_cast<double>(c.mispredicts);
        loads += static_cast<double>(c.loads);
        stores += static_cast<double>(c.stores);
    }
    double all_instr =
        static_cast<double>(w.cores) * static_cast<double>(w.warmup + w.detailed);
    double accesses = static_cast<double>(cnt.translations);
    double pages = 0;
    for (std::uint64_t p : ref.headEnd.pages)
        pages += static_cast<double>(p);

    auto memStat = [&](const std::string &n) {
        return need(checks, res.mem, "mem", n);
    };
    auto tlbStat = [&](const std::string &n) {
        return need(checks, res.tlb, "tlb", n);
    };
    auto gariStat = [&](const std::string &n) {
        return head.garibaldiEnabled
                   ? need(checks, res.garibaldi, "garibaldi", n) : 0.0;
    };
    double grants = gariStat("protection_grants");
    double denials = gariStat("protection_denials");

    std::vector<Metric> m = {
        {"workloads.fill_s", fill, "s"},
        {"workloads.ns_per_op", per(fill, static_cast<double>(cnt.ops)), "ns"},
        {"core.step_s", step, "s"},
        {"core.ns_per_instr", per(step, all_instr), "ns"},
        {"core.branch.s", branch, "s"},
        {"core.branch.ns_per_branch",
         per(branch, static_cast<double>(cnt.branches)), "ns"},
        {"core.tlb.s", tlb, "s"},
        {"core.tlb.ns_per_translation", per(tlb, accesses), "ns"},
        {"garibaldi.s", gari, "s"},
        {"garibaldi.calls", static_cast<double>(cnt.garibaldiCalls), "count"},
        {"garibaldi.ns_per_call",
         per(gari, static_cast<double>(cnt.garibaldiCalls)), "ns"},
        {"mem.s", mem, "s"},
        {"mem.ns_per_access", per(mem, accesses), "ns"},
        {"sim.driver_s", med(&LayerTimes::driver), "s"},
        {"trace.overhead_pct",
         (median(traced) / median(untraced) - 1.0) * 100.0, "%"},

        {"workloads.ops", static_cast<double>(cnt.ops), "count"},
        {"core.instructions", instr, "count"},
        {"core.ifetch_lines", ifetch, "count"},
        {"core.branches", branches, "count"},
        {"core.mispredicts", mispred, "count"},
        {"core.loads", loads, "count"},
        {"core.stores", stores, "count"},
        {"core.tlb.itlb_misses", tlbStat("itlb_misses"), "count"},
        {"core.tlb.dtlb_misses", tlbStat("dtlb_misses"), "count"},
        {"core.tlb.walks", tlbStat("instr_walks") + tlbStat("data_walks"),
         "count"},
        {"core.tlb.pages", pages, "count"},

        {"mem.l1i.accesses", memStat("l1i.accesses"), "count"},
        {"mem.l1d.accesses", memStat("l1d.accesses"), "count"},
        {"mem.l2.accesses", memStat("l2.accesses"), "count"},
        {"mem.llc.accesses", memStat("llc.accesses"), "count"},
        {"mem.llc.instr_accesses", memStat("llc.instr_accesses"), "count"},
        {"mem.llc.misses", memStat("llc.misses"), "count"},
        {"mem.llc.evictions", memStat("llc.evictions"), "count"},
        {"mem.llc.qbs_queries", memStat("llc.qbs_queries"), "count"},
        {"mem.llc.queue_cycles",
         head.llcBankServiceCycles > 0 ? memStat("llc.queue_cycles") : 0.0,
         "cycles"},
        {"mem.mshr_stalls", memStat("mshr_stalls"), "count"},
        {"mem.dram.reads", memStat("dram.reads"), "count"},
        {"mem.dram.writes", memStat("dram.writes"), "count"},
        {"mem.dram.avg_queue_delay", memStat("dram.avg_queue_delay"),
         "cycles"},
        {"mem.dir.invalidations", memStat("dir.invalidations"), "count"},

        {"garibaldi.table_accesses", gariStat("table_accesses"), "count"},
        {"garibaldi.pair_table.queries", gariStat("pair_table.queries"),
         "count"},
        {"garibaldi.pair_table.field_bypasses",
         gariStat("pair_table.field_bypasses"), "count"},
        {"garibaldi.pair_prefetches", gariStat("pair_prefetches"), "count"},
        {"garibaldi.protection_grants", grants, "count"},
        {"garibaldi.protection_denials", denials, "count"},
        {"garibaldi.grant_ratio",
         grants + denials > 0 ? grants / (grants + denials) : 0.0, "ratio"},
        {"gari_gain_pct", gainPct(ref), "%"},
    };

    CpiStack cpi = res.totalCpi();
    static const char *const kCpiNames[] = {
        "base", "branch", "ifetch_l2", "ifetch_llc", "ifetch_mem", "data_l2",
        "data_llc", "data_mem", "store", "itlb", "dtlb"};
    static_assert(sizeof kCpiNames / sizeof kCpiNames[0] == kNumCpiComponents,
                  "one name per CPI component");
    for (std::size_t i = 0; i < kNumCpiComponents; ++i)
        m.push_back({std::string("cpi.") + kCpiNames[i],
                     static_cast<double>(cpi.of(static_cast<CpiComponent>(i))) /
                         instr,
                     "cpi"});
    m.push_back({"ipc_hmean", res.ipcHarmonicMean(), "ipc"});
    m.push_back({"llc_mpki", memStat("llc.misses") * 1000.0 / instr, "mpki"});
    m.push_back({"llc_instr_mpki",
                 memStat("llc.instr_misses") * 1000.0 / instr, "mpki"});

    std::printf("\ntraced runs: %zu  untraced headline runs: %zu  "
                "slices %" PRIu64 "\n",
                layers.size(), untraced.size(), cnt.slices);
    std::vector<std::pair<double, const char *>> rank = {
        {mem, "mem (derived)"}, {gari, "garibaldi"}, {tlb, "core.tlb"},
        {branch, "core.branch"}, {fill, "workloads"},
        {med(&LayerTimes::driver), "sim.driver"}};
    std::sort(rank.rbegin(), rank.rend());
    std::printf("host time by layer, median s (core.step %.3f holds mem, "
                "garibaldi, core.tlb, core.branch):",
                step);
    for (const auto &[secs, name] : rank)
        std::printf("  %s %.3f", name, secs);
    std::printf("\n");
    return m;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            trace = std::atoi(val);
        else {
            usage();
            return 2;
        }
    }
    const Workload *w = findWorkload(workload);
    if (!w || seconds < 0 || (trace != 0 && trace != 1) || argc % 2 == 0) {
        usage();
        return 2;
    }

    std::vector<SystemConfig> configs = w->configs(seed);
    std::printf("workload %s  seed %" PRIu64 "  cores %u  instr/core %" PRIu64
                " warmup + %" PRIu64 " detailed  trace %d\n",
                w->name, seed, w->cores, w->warmup, w->detailed, trace);
    for (const SystemConfig &c : configs)
        std::printf("config: %s\n", c.summary().c_str());
    std::printf("compiler %s  SIM_AUDIT %s\n", __VERSION__,
#ifdef SIM_AUDIT
                "on"
#else
                "off"
#endif
    );

    Checks checks;
    std::vector<Metric> metrics = trace
        ? perLayer(*w, seed, seconds, checks)
        : endToEnd(*w, seed, seconds, checks);
    printResult(checks, metrics);
    return 0;
}
