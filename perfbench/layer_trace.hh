/**
 * @file
 * Outside-in per-layer timing of one simulation.
 *
 * runTraced() drives a System through the same warmup + detailed
 * windows as Simulator::run — the same min-heap on core clocks, the
 * same 32-cycle hysteresis and the same 64-op MicroOpStream::fill
 * chunks — but times the calls it makes into each layer from here,
 * never from inside the simulator:
 *
 *  - workloads: every MicroOpStream::fill chunk;
 *  - core: each core slice (the run of CoreModel::step calls between
 *    two heap pops), split at the fills that fall inside it;
 *  - garibaldi: every event hook, through a forwarding LlcCompanion
 *    installed in front of System::garibaldi();
 *  - core.branch / core.tlb: per-core shadow TagePredictor and
 *    TlbHierarchy + PageTable instances that replay each chunk with
 *    CoreModel's call rules (fetch-line dedup, dedup reset on a
 *    mispredict, the same page-table key), so they reach the live
 *    structures' state call for call.  Their replay time estimates
 *    what the live calls inside step() cost.
 *
 * Every span is corrected by the measured cost of an empty span, so
 * the reported times are tracing-overhead free to first order.
 */

#ifndef PERFBENCH_LAYER_TRACE_HH
#define PERFBENCH_LAYER_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

/** Host seconds spent in each layer of one traced run. */
struct LayerTimes
{
    double fill = 0;      //!< workloads: MicroOpStream::fill
    double step = 0;      //!< core: CoreModel::step, callees included
    double branch = 0;    //!< core.branch: shadow TAGE replay
    double tlb = 0;       //!< core.tlb: shadow TLB + page-table replay
    double garibaldi = 0; //!< garibaldi: LlcCompanion hooks
    double driver = 0;    //!< sim: heap, loop and stat snapshots

    std::uint64_t ops = 0;            //!< micro-ops filled
    std::uint64_t branches = 0;       //!< branch ops replayed
    std::uint64_t translations = 0;   //!< TLB + page-table lookups
    std::uint64_t garibaldiCalls = 0; //!< timed companion hooks
    std::uint64_t slices = 0;         //!< core slices (heap pops)

    /**
     * Memory hierarchy, derived: step time minus the shadow-estimated
     * branch and TLB time and the measured Garibaldi time.  It also
     * holds the core model's own bookkeeping.
     */
    double mem() const { return step - branch - tlb - garibaldi; }
};

/** Cost of a timed span, measured on this host before each run. */
struct SpanCost
{
    double emptyNs = 0;  //!< reading of a span with nothing inside
    double nestedNs = 0; //!< time an empty span adds to its parent

    static SpanCost calibrate();
};

/**
 * End-of-run state of a System: what the faithfulness checks compare.
 * The state of a traced run's shadows fills only tlb, branch and pages.
 */
struct EndState
{
    std::vector<garibaldi::Cycle> clocks;
    garibaldi::StatSet mem;
    garibaldi::StatSet garibaldi;
    std::vector<garibaldi::StatSet> tlb;
    std::vector<garibaldi::StatSet> branch; //!< TAGE stats, lookups included
    std::vector<std::uint64_t> pages;

    static EndState capture(garibaldi::System &sys);
};

/** Result of one traced run. */
struct TracedRun
{
    garibaldi::SimResult result;
    LayerTimes times;
    EndState live;   //!< the traced System at the end of the run
    EndState shadow; //!< the shadow structures (tlb/branch/pages only)
};

/**
 * Run @p sys like Simulator::run(@p warmup, @p detailed), timing each
 * layer.  Obs must be off.
 */
TracedRun runTraced(garibaldi::System &sys, std::uint64_t warmup,
                    std::uint64_t detailed, const SpanCost &cost);

/**
 * Names of the fields where a traced run departs from the untraced
 * @p reference of the same System configuration and seed, or where its
 * shadows depart from its live structures.  Empty when faithful.
 */
std::vector<std::string> faithfulnessMismatches(const TracedRun &traced,
                                                const EndState &reference);

} // namespace perfbench

#endif // PERFBENCH_LAYER_TRACE_HH
