#include "sim/metrics.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace garibaldi
{

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double denom = 0;
    for (double v : values) {
        if (v <= 0)
            return 0;
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values) {
        if (v <= 0)
            return 0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
weightedSpeedup(const std::vector<double> &shared_ipc,
                const std::vector<double> &single_ipc)
{
    if (shared_ipc.size() != single_ipc.size())
        fatal("weightedSpeedup: size mismatch");
    double sum = 0;
    for (std::size_t i = 0; i < shared_ipc.size(); ++i) {
        if (single_ipc[i] <= 0)
            fatal("weightedSpeedup: non-positive solo IPC");
        sum += shared_ipc[i] / single_ipc[i];
    }
    return sum;
}

double
safeRate(double numerator, double denominator)
{
    return denominator > 0 ? numerator / denominator : 0.0;
}

namespace
{

/**
 * Sum a '+'-joined counter expression from a rate's add site under
 * the addAll prefix the rate carries ("dram." for dram.avg_queue_delay
 * -> dram.queued_cycles over dram.reads + dram.writes).  Absent names
 * read as 0 so a gated counter missing from a model-off surface never
 * faults the recompute.
 */
double
sumCounters(const StatSet &s, const std::string &prefix,
            const char *expr)
{
    double total = 0;
    const char *tok = expr;
    while (tok != nullptr && *tok != '\0') {
        const char *plus = std::strchr(tok, '+');
        std::string name =
            prefix + (plus != nullptr
                          ? std::string(tok, static_cast<std::size_t>(
                                                 plus - tok))
                          : std::string(tok));
        if (s.has(name))
            total += s.get(name);
        tok = plus != nullptr ? plus + 1 : nullptr;
    }
    return total;
}

} // namespace

StatSet
subtractCounters(const StatSet &after, const StatSet &before)
{
    // Gauges, quantiles and histogram summaries report their
    // end-of-window reading (differencing point-in-time values or
    // percentiles of a cumulative histogram is noise); counters and
    // rates subtract, and recomputeWindowedRates then rebuilds every
    // rate from the subtracted inputs.
    StatSet out = after;
    for (std::size_t i = 0; i < after.entries().size(); ++i) {
        const StatSemantics &sem = after.semantics(i);
        if (windowRuleOf(sem.kind) == WindowRule::KeepLast)
            continue;
        const auto &[name, value] = after.entries()[i];
        double prev = before.has(name) ? before.get(name) : 0.0;
        out.add(name, value - prev, sem);
    }
    return out;
}

void
recomputeWindowedRates(StatSet &s)
{
    for (std::size_t i = 0; i < s.entries().size(); ++i) {
        StatSemantics sem = s.semantics(i);
        if (sem.kind != StatKind::Rate)
            continue;
        std::string prefix = s.prefixOf(i);
        std::string name = s.entries()[i].first;
        s.add(name, safeRate(sumCounters(s, prefix, sem.num),
                             sumCounters(s, prefix, sem.den)),
              sem);
    }
}

StatSet
windowedStatDelta(const StatSet &after, const StatSet &before)
{
    StatSet out = subtractCounters(after, before);
    recomputeWindowedRates(out);
    return out;
}

} // namespace garibaldi
