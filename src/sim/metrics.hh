/**
 * @file
 * Performance metrics of §6: harmonic-mean IPC for homogeneous mixes,
 * weighted speedup (sum of IPC_shared / IPC_single) for heterogeneous
 * mixes, and geometric means for summary rows; plus the windowing of
 * StatSets, driven by each entry's kind (common/stat_kind.hh).
 */

#ifndef GARIBALDI_SIM_METRICS_HH
#define GARIBALDI_SIM_METRICS_HH

#include <string>
#include <vector>

#include "common/stats.hh"

namespace garibaldi
{

/** Harmonic mean; 0 when any element is non-positive. */
double harmonicMean(const std::vector<double> &values);

/** Geometric mean; 0 when any element is non-positive. */
double geometricMean(const std::vector<double> &values);

/**
 * Weighted speedup = sum_i IPC_shared[i] / IPC_single[i].
 * Sizes must match; fatal otherwise.
 */
double weightedSpeedup(const std::vector<double> &shared_ipc,
                       const std::vector<double> &single_ipc);

/**
 * @p numerator / @p denominator, 0 when the denominator is not
 * positive.  Derived rates (hit rate, coverage, average queue delay,
 * ...) must be computed with this from *summed* raw counters — never by
 * averaging or subtracting per-bank / per-window rates, which weights
 * every bank or window equally regardless of its traffic.
 *
 * Windowing rules (what Simulator::run applies to every exported stat,
 * by the entry's kind): counters subtract across the window boundary;
 * rates are recomputed with safeRate from the subtracted counters;
 * gauges, quantiles and histogram summaries are never differenced —
 * the window reports the end-of-window value.
 */
double safeRate(double numerator, double denominator);

/**
 * Counter subtraction across a window boundary: every entry of
 * @p after minus its @p before reading (absent = 0), except entries
 * whose kind windows as keep-last (gauges, quantiles, histogram
 * summaries), which keep the after value.  Kinds come from @p after.
 */
StatSet subtractCounters(const StatSet &after, const StatSet &before);

/**
 * Recompute every rate entry of @p s in place from its input counters
 * — a difference of ratios is not the ratio of differences.  The
 * input names are the ones written at the rate's add site, resolved
 * under the addAll prefix the entry carries (StatSet::prefixOf).
 */
void recomputeWindowedRates(StatSet &s);

/**
 * The full windowing discipline in one call: subtractCounters, then
 * recomputeWindowedRates.  Used by Simulator::run for the detailed
 * window and by the telemetry sink for every intra-run window, so the
 * two can never drift apart.  Gauges keep their end-of-window reading
 * via their entry kind — callers never re-add them.
 */
StatSet windowedStatDelta(const StatSet &after, const StatSet &before);

} // namespace garibaldi

#endif // GARIBALDI_SIM_METRICS_HH
