#include "perfbench/layer_trace.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "core/branch/tage.hh"
#include "core/page_table.hh"
#include "core/tlb.hh"
#include "mem/llc_companion.hh"
#include "sim/metrics.hh"

namespace perfbench
{

using namespace garibaldi;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Host time of one layer: raw span readings and the span count. */
struct SpanSum
{
    std::int64_t rawNs = 0;
    std::uint64_t spans = 0;

    void
    add(std::int64_t start, std::int64_t end)
    {
        rawNs += end - start;
        ++spans;
    }

    /** Seconds with the empty-span reading taken off every span. */
    double
    seconds(const SpanCost &cost) const
    {
        return (static_cast<double>(rawNs) -
                cost.emptyNs * static_cast<double>(spans)) * 1e-9;
    }
};

/**
 * Forwarding LlcCompanion that times every event hook of the module
 * it wraps.  The two constant getters are forwarded untimed.
 */
class TimedCompanion final : public LlcCompanion
{
  public:
    explicit TimedCompanion(LlcCompanion &inner_) : inner(inner_) {}

    void
    observeAccess(const MemAccess &acc, bool hit, Cycle now) override
    {
        std::int64_t t0 = nowNs();
        inner.observeAccess(acc, hit, now);
        sum.add(t0, nowNs());
    }

    bool
    shouldProtect(Addr victim_line_addr) override
    {
        std::int64_t t0 = nowNs();
        bool protect = inner.shouldProtect(victim_line_addr);
        sum.add(t0, nowNs());
        return protect;
    }

    void
    instrMissPrefetch(Addr instr_line_addr, std::vector<Addr> &out) override
    {
        std::int64_t t0 = nowNs();
        inner.instrMissPrefetch(instr_line_addr, out);
        sum.add(t0, nowNs());
    }

    void
    observeInsert(Addr line_addr, bool is_instr, bool prefetched) override
    {
        std::int64_t t0 = nowNs();
        inner.observeInsert(line_addr, is_instr, prefetched);
        sum.add(t0, nowNs());
    }

    void
    observeEvict(Addr line_addr, bool is_instr) override
    {
        std::int64_t t0 = nowNs();
        inner.observeEvict(line_addr, is_instr);
        sum.add(t0, nowNs());
    }

    unsigned
    maxProtectAttempts() const override
    {
        return inner.maxProtectAttempts();
    }

    Cycle queryCost() const override { return inner.queryCost(); }

    SpanSum sum;

  private:
    LlcCompanion &inner;
};

/**
 * A core's shadow branch predictor, TLBs and page table, fed the same
 * micro-ops as the live core with CoreModel::step's call rules.
 */
struct ShadowCore
{
    ShadowCore(CoreId core, const TlbHierarchy::Params &tlb_params,
               std::uint64_t core_seed)
        : tlb(tlb_params), pt(core, mix64(core_seed ^ (0x517cc1b7 + core)))
    {
    }

    /** Replay the branches of @p n <= 64 ops; bit i = op i mispredicted. */
    std::uint64_t
    replayBranches(const MicroOp *ops, std::size_t n, std::uint64_t &count)
    {
        std::uint64_t mispredicts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const MicroOp &op = ops[i];
            if (!op.isBranch)
                continue;
            ++count;
            bool wrong;
            if (op.isIndirect) {
                wrong = bp.predictIndirect(op.pc) != op.branchTarget;
                bp.updateIndirect(op.pc, op.branchTarget);
            } else {
                wrong = bp.predict(op.pc) != op.branchTaken;
                bp.update(op.pc, op.branchTaken);
            }
            if (wrong)
                mispredicts |= std::uint64_t{1} << i;
        }
        return mispredicts;
    }

    /** Replay the translations of @p n <= 64 ops. */
    void
    replayTranslations(const MicroOp *ops, std::size_t n,
                       std::uint64_t mispredicts, std::uint64_t &count)
    {
        for (std::size_t i = 0; i < n; ++i) {
            const MicroOp &op = ops[i];
            Addr fetch_line = lineAlign(op.pc);
            if (fetch_line != lastFetchLine) {
                lastFetchLine = fetch_line;
                tlb.accessInstr(pageNumber(op.pc));
                pt.translate(fetch_line);
                ++count;
            }
            if (mispredicts >> i & 1)
                lastFetchLine = ~Addr{0};
            if (op.mem != MicroOp::MemKind::None) {
                tlb.accessData(pageNumber(op.vaddr));
                pt.translate(op.vaddr);
                ++count;
            }
        }
    }

    TagePredictor bp;
    TlbHierarchy tlb;
    PageTable pt;
    Addr lastFetchLine = ~Addr{0};
};

/** The traced twin of Simulator::runWindow plus its span sums. */
class TracedDriver
{
  public:
    explicit TracedDriver(System &sys_) : sys(sys_)
    {
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            shadows.emplace_back(c, sys.config().core.tlb,
                                 mix64(sys.config().seed + 0x9e37 + c));
        }
    }

    void
    runWindow(std::uint64_t instructions_per_core)
    {
        using HeapEntry = std::pair<Cycle, CoreId>;
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            std::greater<>> heap;
        std::vector<std::uint64_t> remaining(sys.numCores(),
                                             instructions_per_core);
        for (CoreId c = 0; c < sys.numCores(); ++c)
            heap.emplace(sys.core(c).now(), c);

        constexpr std::size_t kOpChunk = 64;
        std::vector<std::vector<MicroOp>> opBuf(sys.numCores());
        std::vector<std::size_t> opCursor(sys.numCores(), 0);
        std::vector<std::uint64_t> unfetched(sys.numCores(),
                                             instructions_per_core);
        for (CoreId c = 0; c < sys.numCores(); ++c)
            opBuf[c].reserve(kOpChunk);

        constexpr Cycle kHysteresis = 32;

        while (!heap.empty()) {
            CoreId c = heap.top().second;
            heap.pop();
            ++slices;
            CoreModel &core = sys.core(c);
            Cycle horizon = (heap.empty() ? core.now() + 100000
                                          : heap.top().first) + kHysteresis;
            std::int64_t seg = nowNs();
            while (remaining[c] > 0 && core.now() <= horizon) {
                if (opCursor[c] == opBuf[c].size()) {
                    step.add(seg, nowNs());
                    std::size_t n = static_cast<std::size_t>(
                        std::min<std::uint64_t>(kOpChunk, unfetched[c]));
                    opBuf[c].resize(n);
                    refill(c, opBuf[c].data(), n);
                    unfetched[c] -= n;
                    opCursor[c] = 0;
                    seg = nowNs();
                }
                core.step(opBuf[c][opCursor[c]++]);
                --remaining[c];
            }
            step.add(seg, nowNs());
            if (remaining[c] > 0)
                heap.emplace(core.now(), c);
        }
    }

    /** Fill one chunk and replay it through the core's shadows. */
    void
    refill(CoreId c, MicroOp *ops, std::size_t n)
    {
        ShadowCore &s = shadows[c];
        std::int64_t t0 = nowNs();
        sys.stream(c).fill(ops, n);
        std::int64_t t1 = nowNs();
        std::uint64_t mispredicts = s.replayBranches(ops, n, branchOps);
        std::int64_t t2 = nowNs();
        s.replayTranslations(ops, n, mispredicts, translations);
        std::int64_t t3 = nowNs();
        fill.add(t0, t1);
        branch.add(t1, t2);
        tlb.add(t2, t3);
        opsFilled += n;
    }

    System &sys;
    std::vector<ShadowCore> shadows;
    SpanSum step, fill, branch, tlb;
    std::uint64_t opsFilled = 0, branchOps = 0, translations = 0, slices = 0;
};

StatSet
sumTlbStats(System &sys)
{
    StatSet agg;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        StatSet per_core = sys.core(c).tlbs().stats();
        for (const auto &[name, value] : per_core.entries()) {
            double prev = agg.has(name) ? agg.get(name) : 0.0;
            agg.add(name, prev + value);
        }
    }
    return agg;
}

/** Same entries, same order, bit-identical values (NaN included). */
bool
sameStats(const StatSet &a, const StatSet &b)
{
    const auto &x = a.entries();
    const auto &y = b.entries();
    if (x.size() != y.size())
        return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].first != y[i].first ||
            std::memcmp(&x[i].second, &y[i].second, sizeof(double)) != 0)
            return false;
    }
    return true;
}

} // namespace

SpanCost
SpanCost::calibrate()
{
    constexpr int kRounds = 5;
    constexpr int kSpans = 100000;
    std::vector<double> empty, nested;
    for (int r = 0; r < kRounds; ++r) {
        SpanSum sum;
        std::int64_t outer = nowNs();
        for (int i = 0; i < kSpans; ++i) {
            std::int64_t t0 = nowNs();
            sum.add(t0, nowNs());
        }
        std::int64_t outer_end = nowNs();
        empty.push_back(static_cast<double>(sum.rawNs) / kSpans);
        nested.push_back(static_cast<double>(outer_end - outer) / kSpans);
    }
    std::sort(empty.begin(), empty.end());
    std::sort(nested.begin(), nested.end());
    return {empty[kRounds / 2], nested[kRounds / 2]};
}

EndState
EndState::capture(System &sys)
{
    EndState s;
    s.mem = sys.hierarchy().stats();
    if (sys.garibaldi())
        s.garibaldi = sys.garibaldi()->stats();
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        CoreModel &core = sys.core(c);
        s.clocks.push_back(core.now());
        s.tlb.push_back(core.tlbs().stats());
        s.branch.push_back(core.branchPredictor().stats());
        s.pages.push_back(core.pageTable().allocatedPages());
    }
    return s;
}

TracedRun
runTraced(System &sys, std::uint64_t warmup, std::uint64_t detailed,
          const SpanCost &cost)
{
    if (sys.obs())
        fatal("the traced run needs every obs knob off");
    if (detailed == 0)
        fatal("detailed window must be non-zero");

    TracedDriver drv(sys);
    std::unique_ptr<TimedCompanion> companion;
    if (sys.garibaldi()) {
        companion = std::make_unique<TimedCompanion>(*sys.garibaldi());
        sys.hierarchy().setLlcCompanion(companion.get());
    }
    std::int64_t start = nowNs();

    // Simulator::run, with runWindow replaced by the traced twin.
    if (warmup > 0)
        drv.runWindow(warmup);
    StatSet mem_before = sys.hierarchy().stats();
    StatSet gari_before;
    if (sys.garibaldi())
        gari_before = sys.garibaldi()->stats();
    StatSet tlb_before = sumTlbStats(sys);
    for (CoreId c = 0; c < sys.numCores(); ++c)
        sys.core(c).resetStats();

    drv.runWindow(detailed);

    TracedRun out;
    SimResult &res = out.result;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const CoreStats &cs = sys.core(c).stats();
        CoreResult cr;
        cr.instructions = cs.instructions;
        cr.cycles = sys.core(c).windowCycles();
        cr.ipc = cs.ipc(cr.cycles);
        cr.cpi = cs.cpi;
        cr.branches = cs.branches;
        cr.mispredicts = cs.mispredicts;
        cr.loads = cs.loads;
        cr.stores = cs.stores;
        cr.ifetchLines = cs.ifetchLines;
        res.cores.push_back(cr);
    }
    res.mem = windowedStatDelta(sys.hierarchy().stats(), mem_before);
    if (sys.garibaldi())
        res.garibaldi =
            windowedStatDelta(sys.garibaldi()->stats(), gari_before);
    res.tlb = subtractCounters(sumTlbStats(sys), tlb_before);
    std::int64_t end = nowNs();

    if (companion)
        sys.hierarchy().setLlcCompanion(sys.garibaldi());

    LayerTimes &t = out.times;
    SpanSum gari = companion ? companion->sum : SpanSum{};
    t.fill = drv.fill.seconds(cost);
    t.branch = drv.branch.seconds(cost);
    t.tlb = drv.tlb.seconds(cost);
    t.garibaldi = gari.seconds(cost);
    // Slice segments enclose the Garibaldi spans: take off what each
    // nested span added to them.
    t.step = drv.step.seconds(cost) -
             cost.nestedNs * static_cast<double>(gari.spans) * 1e-9;
    std::uint64_t top_spans = drv.step.spans + drv.fill.spans +
                              drv.branch.spans + drv.tlb.spans;
    t.driver = static_cast<double>(end - start) * 1e-9 -
               (drv.step.seconds(cost) + t.fill + t.branch + t.tlb) -
               cost.nestedNs * static_cast<double>(top_spans) * 1e-9;
    t.ops = drv.opsFilled;
    t.branches = drv.branchOps;
    t.translations = drv.translations;
    t.garibaldiCalls = gari.spans;
    t.slices = drv.slices;

    out.live = EndState::capture(sys);
    for (const ShadowCore &s : drv.shadows) {
        out.shadow.tlb.push_back(s.tlb.stats());
        out.shadow.branch.push_back(s.bp.stats());
        out.shadow.pages.push_back(s.pt.allocatedPages());
    }
    return out;
}

std::vector<std::string>
faithfulnessMismatches(const TracedRun &traced, const EndState &reference)
{
    std::vector<std::string> bad;
    const EndState &live = traced.live;
    if (live.clocks != reference.clocks)
        bad.push_back("core clocks vs untraced run");
    if (!sameStats(live.mem, reference.mem))
        bad.push_back("hierarchy stats vs untraced run");
    if (!sameStats(live.garibaldi, reference.garibaldi))
        bad.push_back("garibaldi stats vs untraced run");
    for (std::size_t c = 0; c < live.clocks.size(); ++c) {
        std::string core = " (core " + std::to_string(c) + ")";
        if (!sameStats(traced.shadow.branch[c], live.branch[c]))
            bad.push_back("shadow TAGE lookups/stats" + core);
        if (traced.shadow.pages[c] != live.pages[c])
            bad.push_back("shadow page count" + core);
        if (!sameStats(traced.shadow.tlb[c], live.tlb[c]))
            bad.push_back("shadow TLB hits/misses" + core);
    }
    return bad;
}

} // namespace perfbench
