#include "common/stat_kind.hh"

namespace garibaldi
{

WindowRule
windowRuleOf(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return WindowRule::Subtract;
      case StatKind::Rate:
        return WindowRule::Recompute;
      case StatKind::Gauge:
      case StatKind::Quantile:
      case StatKind::HistogramSummary:
        return WindowRule::KeepLast;
    }
    return WindowRule::Subtract;
}

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:
        return "counter";
      case StatKind::Rate:
        return "rate";
      case StatKind::Gauge:
        return "gauge";
      case StatKind::Quantile:
        return "quantile";
      case StatKind::HistogramSummary:
        return "histogram_summary";
    }
    return "counter";
}

} // namespace garibaldi
