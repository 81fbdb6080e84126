#include "mem/coherence.hh"

#include "common/logging.hh"
#include "common/stat_kind.hh"

namespace garibaldi
{

const char *
cohStateName(CohState s)
{
    switch (s) {
      case CohState::Invalid:
        return "I";
      case CohState::Shared:
        return "S";
      case CohState::Exclusive:
        return "E";
      case CohState::Modified:
        return "M";
      default:
        return "?";
    }
}

Directory::Directory(std::uint32_t num_clusters)
    : numClusters(num_clusters)
{
    if (num_clusters == 0 || num_clusters > 64)
        fatal("Directory supports 1..64 clusters, got ", num_clusters);
}

Cycle
Directory::onFill(Addr line_addr, std::uint32_t cluster, bool is_write,
                  std::vector<std::uint32_t> &invalidate)
{
    Entry &e = dir.ref(lineNumber(line_addr));
    std::uint64_t me = std::uint64_t{1} << cluster;
    Cycle penalty = 0;

    if (is_write) {
        // Invalidate every other sharer; requester becomes Modified.
        if (e.sharers & ~me) {
            for (std::uint32_t c = 0; c < numClusters; ++c) {
                if (c != cluster && (e.sharers & (std::uint64_t{1} << c)))
                    invalidate.push_back(c);
            }
            nInvalidations += invalidate.size();
            penalty = kInvalidateLatency;
        }
        e.sharers = me;
        e.state = CohState::Modified;
        return penalty;
    }

    if (e.sharers == 0) {
        e.sharers = me;
        e.state = CohState::Exclusive;
    } else if (e.sharers == me) {
        // Refill by the sole owner keeps its state.
    } else {
        // A second cluster joins: everyone drops to Shared; a Modified
        // owner implicitly writes back (latency charged to requester).
        if (e.state == CohState::Modified)
            penalty = kInvalidateLatency;
        e.sharers |= me;
        e.state = CohState::Shared;
        ++nSharedFills;
    }
    return penalty;
}

Cycle
Directory::onUpgrade(Addr line_addr, std::uint32_t cluster,
                     std::vector<std::uint32_t> &invalidate)
{
    ++nUpgrades;
    return onFill(line_addr, cluster, true, invalidate);
}

void
Directory::onEvict(Addr line_addr, std::uint32_t cluster)
{
    Entry *e = dir.find(lineNumber(line_addr));
    if (!e)
        return;
    e->sharers &= ~(std::uint64_t{1} << cluster);
    if (e->sharers == 0)
        dir.erase(lineNumber(line_addr));
    // Remaining holders keep their state; a lone Shared sharer stays
    // Shared (silent S->E upgrade not modeled).
}

CohState
Directory::stateOf(Addr line_addr) const
{
    const Entry *e = dir.find(lineNumber(line_addr));
    return e ? e->state : CohState::Invalid;
}

std::uint32_t
Directory::sharerCount(Addr line_addr) const
{
    const Entry *e = dir.find(lineNumber(line_addr));
    if (!e)
        return 0;
    return static_cast<std::uint32_t>(
        __builtin_popcountll(e->sharers));
}

bool
Directory::isSharer(Addr line_addr, std::uint32_t cluster) const
{
    const Entry *e = dir.find(lineNumber(line_addr));
    return e && (e->sharers & (std::uint64_t{1} << cluster));
}

StatSet
Directory::stats() const
{
    StatSet s;
    s.add("invalidations", static_cast<double>(nInvalidations));
    s.add("upgrades", static_cast<double>(nUpgrades));
    s.add("shared_fills", static_cast<double>(nSharedFills));
    s.add("tracked_lines", static_cast<double>(dir.size()),
          statkind::gauge);
    return s;
}

} // namespace garibaldi
