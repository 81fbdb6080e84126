/**
 * @file
 * Stat kinds: what every exported number means.  Each StatSet entry
 * records its kind, written at the add site that produces the stat,
 * and the kind fixes what a window boundary (Simulator::run,
 * TelemetrySink) does to it:
 *
 *   counter            monotone event count; the       window: subtract
 *                      default when no kind is given.
 *   rate(num, den)     derived ratio of counters.      window: recompute
 *                      num/den are '+'-joined sibling
 *                      counter names, resolved under
 *                      the addAll prefix the rate
 *                      entry carries.
 *   gauge              point-in-time reading           window: keep-last
 *                      (threshold, color, ...).
 *   quantile           percentile landmark of a        window: keep-last
 *                      cumulative histogram.
 *   histogram_summary  derived summary (mean,          window: keep-last
 *                      imbalance) of internal
 *                      distribution state.
 *
 * At the add site:
 *
 *   s.add("reads", v);                                  // counter
 *   s.add("avg_queue_delay", v,
 *         statkind::rate("queued_cycles", "reads+writes"));
 *   s.add("threshold", v, statkind::gauge);
 *
 * Rate input names are string literals (they are stored by pointer).
 * tests/stat_surface_test.cc checks names against kinds and rate
 * inputs against the counters beside them, and pins the (name, kind)
 * list to scripts/goldens/stat_surface.txt.
 */

#ifndef GARIBALDI_COMMON_STAT_KIND_HH
#define GARIBALDI_COMMON_STAT_KIND_HH

namespace garibaldi
{

enum class StatKind
{
    Counter,
    Rate,
    Gauge,
    Quantile,
    HistogramSummary,
};

/** What a window boundary does to a stat of a given kind. */
enum class WindowRule
{
    Subtract,  //!< after - before
    Recompute, //!< rebuild from the windowed input counters
    KeepLast,  //!< report the end-of-window reading
};

WindowRule windowRuleOf(StatKind kind);
const char *statKindName(StatKind kind);

/** Kind plus the rate inputs; built via the statkind:: vocabulary. */
struct StatSemantics
{
    StatKind kind;
    const char *num; //!< Rate only: '+'-joined sibling counter names
    const char *den; //!< Rate only: '+'-joined sibling counter names
};

namespace statkind
{

inline constexpr StatSemantics counter{StatKind::Counter, nullptr,
                                       nullptr};
inline constexpr StatSemantics gauge{StatKind::Gauge, nullptr, nullptr};
inline constexpr StatSemantics quantile{StatKind::Quantile, nullptr,
                                        nullptr};
inline constexpr StatSemantics histogram_summary{
    StatKind::HistogramSummary, nullptr, nullptr};

constexpr StatSemantics
rate(const char *num, const char *den)
{
    return StatSemantics{StatKind::Rate, num, den};
}

} // namespace statkind

} // namespace garibaldi

#endif // GARIBALDI_COMMON_STAT_KIND_HH
