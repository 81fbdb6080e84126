// Fixture: a stat computed from a SIM_EPOCH_MERGED(max) member but
// added as a counter (merges as sum) — a sum-merged stat cannot be
// derived from max-merged state.  The kind is read straight from the
// add call (absent = counter).
// Expected finding: merge-mismatch (run with --boundary FixtureWatermark).
#include <cstdint>

#include "common/sharing.hh"
#include "common/stats.hh"

namespace garibaldi
{

class FixtureWatermark
{
  public:
    StatSet stats() const;

  private:
    SIM_EPOCH_MERGED(max) std::uint64_t peakDepth = 0;
    SIM_EPOCH_MERGED(sum) std::uint64_t enqueues = 0;
    SIM_EPOCH_MERGED(sum) std::uint64_t depthCycles = 0;
};

StatSet
FixtureWatermark::stats() const
{
    StatSet s;
    s.add("peak_depth", static_cast<double>(peakDepth)); // finding
    s.add("enqueues", static_cast<double>(enqueues)); // fine: sum/sum
    // Fine: a rate recomputes from sum-merged inputs.
    s.add("avg_depth",
          enqueues ? static_cast<double>(depthCycles) / enqueues : 0.0,
          statkind::rate("depth_cycles", "enqueues"));
    return s;
}

} // namespace garibaldi
