#include "sim/monitors.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/stat_kind.hh"

namespace garibaldi
{

ReuseDistanceMonitor::ReuseDistanceMonitor(std::uint32_t llc_sets,
                                           unsigned sample_shift)
    : numSets(llc_sets), sampleShift(sample_shift),
      stacks(llc_sets >= (1u << sample_shift)
                 ? llc_sets >> sample_shift : 1)
{
}

void
ReuseDistanceMonitor::observe(const MemAccess &acc, bool)
{
    Addr line = acc.lineAddr();
    std::uint32_t set =
        static_cast<std::uint32_t>(lineNumber(line)) & (numSets - 1);
    if (set & ((1u << sampleShift) - 1))
        return;

    std::vector<Addr> &stack = stacks[set >> sampleShift];
    auto it = std::find(stack.begin(), stack.end(), line);
    if (it != stack.end()) {
        // Stack distance == number of distinct lines touched in this
        // set since the previous access to `line`.
        std::uint64_t distance =
            static_cast<std::uint64_t>(it - stack.begin());
        if (acc.isInstr)
            instrDist.add(distance);
        else
            dataDist.add(distance);
        stack.erase(it);
    }
    stack.insert(stack.begin(), line);
    if (stack.size() > 512)
        stack.pop_back();
}

StatSet
ReuseDistanceMonitor::stats() const
{
    StatSet s;
    s.add("instr_mean_distance", instrDist.mean(),
          statkind::histogram_summary);
    s.add("data_mean_distance", dataDist.mean(),
          statkind::histogram_summary);
    // Percentiles of the cumulative histograms: windowing keeps the
    // end-of-window reading instead of differencing the landmarks
    // across snapshots.
    s.add("instr_distance_p90",
          static_cast<double>(instrDist.percentile(0.9)),
          statkind::quantile);
    s.add("data_distance_p90",
          static_cast<double>(dataDist.percentile(0.9)),
          statkind::quantile);
    s.add("instr_samples", static_cast<double>(instrDist.count()));
    s.add("data_samples", static_cast<double>(dataDist.count()));
    return s;
}

void
LineFrequencyMonitor::observe(const MemAccess &acc, bool)
{
    Addr line = lineNumber(acc.lineAddr());
    if (acc.isInstr) {
        ++instrCounts.ref(line);
        ++instrAccesses;
    } else {
        ++dataCounts.ref(line);
        ++dataAccesses;
    }
}

double
LineFrequencyMonitor::instrAccessesPerLine() const
{
    return instrCounts.size() == 0
        ? 0.0
        : static_cast<double>(instrAccesses) / instrCounts.size();
}

double
LineFrequencyMonitor::dataAccessesPerLine() const
{
    return dataCounts.size() == 0
        ? 0.0
        : static_cast<double>(dataAccesses) / dataCounts.size();
}

double
LineFrequencyMonitor::instrAccessRatio() const
{
    std::uint64_t total = instrAccesses + dataAccesses;
    return total ? static_cast<double>(instrAccesses) / total : 0.0;
}

StatSet
LineFrequencyMonitor::stats() const
{
    StatSet s;
    s.add("instr_accesses_per_line", instrAccessesPerLine(),
          statkind::gauge);
    s.add("data_accesses_per_line", dataAccessesPerLine(),
          statkind::gauge);
    s.add("instr_access_ratio", instrAccessRatio(), statkind::gauge);
    s.add("distinct_instr_lines",
          static_cast<double>(instrCounts.size()), statkind::gauge);
    s.add("distinct_data_lines", static_cast<double>(dataCounts.size()),
          statkind::gauge);
    return s;
}

void
PairingMonitor::observe(const MemAccess &acc, bool hit)
{
    if (acc.isInstr) {
        // Instruction accesses are keyed by their own virtual line.
        InstrLineStats &st = instrLines.ref(lineNumber(acc.pc));
        ++st.accesses;
        if (!hit)
            ++st.misses;
        return;
    }
    // Data access: attribute to the triggering instruction's line (the
    // PC travels with every request, §5.1).
    Addr il = lineNumber(acc.pc);
    InstrLineStats &st = instrLines.ref(il);
    if (hit)
        ++st.dataHits;
    else
        ++st.dataMisses;

    if (hit) {
        // Sharing degree: count distinct consecutive instruction lines
        // touching each hot data line (exact set tracking is too big;
        // consecutive-distinct is a faithful lower bound).
        SharerEntry &e = dataSharers.ref(lineNumber(acc.lineAddr()));
        if (e.count == 0) {
            e.last = il;
            e.count = 1;
        } else if (e.last != il) {
            e.last = il;
            ++e.count;
        }
    }
}

double
PairingMonitor::instrMissRateDataHot() const
{
    std::uint64_t acc = 0, miss = 0;
    instrLines.forEach([&](Addr, const InstrLineStats &st) {
        if (st.accesses == 0 || st.dataHits + st.dataMisses == 0)
            return;
        if (st.dataHits >= st.dataMisses) {
            acc += st.accesses;
            miss += st.misses;
        }
    });
    return acc ? static_cast<double>(miss) / acc : 0.0;
}

double
PairingMonitor::instrMissRateDataCold() const
{
    std::uint64_t acc = 0, miss = 0;
    instrLines.forEach([&](Addr, const InstrLineStats &st) {
        if (st.accesses == 0 || st.dataHits + st.dataMisses == 0)
            return;
        if (st.dataHits < st.dataMisses) {
            acc += st.accesses;
            miss += st.misses;
        }
    });
    return acc ? static_cast<double>(miss) / acc : 0.0;
}

double
PairingMonitor::dataSharingDegree() const
{
    if (dataSharers.size() == 0)
        return 0.0;
    std::uint64_t sum = 0;
    dataSharers.forEach(
        [&](Addr, const SharerEntry &e) { sum += e.count; });
    return static_cast<double>(sum) / dataSharers.size();
}

StatSet
PairingMonitor::stats() const
{
    StatSet s;
    s.add("instr_missrate_datahot", instrMissRateDataHot(),
          statkind::gauge);
    s.add("instr_missrate_datacold", instrMissRateDataCold(),
          statkind::gauge);
    s.add("data_sharing_degree", dataSharingDegree(), statkind::gauge);
    s.add("tracked_instr_lines", static_cast<double>(instrLines.size()),
          statkind::gauge);
    return s;
}

BankQueueMonitor::BankQueueMonitor(std::uint32_t num_banks,
                                   std::uint32_t interleave_shift)
    : banks(num_banks == 0 ? 1 : num_banks),
      interleaveShift(interleave_shift),
      bankMask((num_banks == 0 ? 1 : num_banks) - 1)
{
    // Same geometry contract as LlcBankSet: the mask-based mapping is
    // only a partition for power-of-two bank counts.
    if (num_banks > 0)
        checkPowerOf2(num_banks, "BankQueueMonitor bank count");
}

std::uint32_t
BankQueueMonitor::bankOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(
        (lineNumber(line_addr) >> interleaveShift) & bankMask);
}

void
BankQueueMonitor::onLlcAccess(const Transaction &txn, bool hit)
{
    BankCounters &b = banks[bankOf(txn.lineAddr)];
    ++b.accesses;
    if (hit)
        ++b.hits;
    if (txn.queueCycles > 0) {
        ++b.queuedAccesses;
        b.queueCycles += txn.queueCycles;
    }
}

double
BankQueueMonitor::accessImbalance() const
{
    std::uint64_t total = 0, peak = 0;
    for (const BankCounters &b : banks) {
        total += b.accesses;
        peak = std::max(peak, b.accesses);
    }
    if (total == 0)
        return 1.0;
    double mean = static_cast<double>(total) / banks.size();
    return static_cast<double>(peak) / mean;
}

double
BankQueueMonitor::meanQueueDelay() const
{
    std::uint64_t total = 0, cycles = 0;
    for (const BankCounters &b : banks) {
        total += b.accesses;
        cycles += b.queueCycles;
    }
    return total ? static_cast<double>(cycles) / total : 0.0;
}

StatSet
BankQueueMonitor::stats() const
{
    StatSet s;
    s.add("banks", static_cast<double>(banks.size()), statkind::gauge);
    s.add("access_imbalance", accessImbalance(),
          statkind::histogram_summary);
    s.add("mean_queue_delay", meanQueueDelay(),
          statkind::histogram_summary);
    for (std::size_t b = 0; b < banks.size(); ++b) {
        std::string prefix = "bank" + std::to_string(b) + ".";
        s.add(prefix + "accesses",
              static_cast<double>(banks[b].accesses));
        s.add(prefix + "hits", static_cast<double>(banks[b].hits));
        s.add(prefix + "queued_accesses",
              static_cast<double>(banks[b].queuedAccesses));
        s.add(prefix + "queue_cycles",
              static_cast<double>(banks[b].queueCycles));
    }
    return s;
}

} // namespace garibaldi
