/**
 * @file
 * Lightweight named-statistics registry.  Modules keep plain uint64_t
 * members for hot-path counting and export them through a StatSet for
 * uniform dumping in tests, examples and benches.  Every entry records
 * its kind (common/stat_kind.hh), written at the add site that
 * produces it, so windowing reads the meaning of a number from the
 * number itself.
 */

#ifndef GARIBALDI_COMMON_STATS_HH
#define GARIBALDI_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stat_kind.hh"

namespace garibaldi
{

/**
 * An ordered collection of (name, value) statistics.  Values are doubles
 * so both counters and derived ratios fit; each entry's kind is kept
 * beside it.
 */
class StatSet
{
  public:
    /**
     * Add or overwrite a statistic of kind @p sem (a counter unless
     * stated).  fatal() when @p name already holds a different kind.
     */
    void add(const std::string &name, double value,
             const StatSemantics &sem = statkind::counter);

    /**
     * Merge another set under a name prefix ("llc." etc.).  Kinds come
     * along, and a rate's inputs keep resolving next to the rate.
     */
    void addAll(const std::string &prefix, const StatSet &other);

    /** Lookup; fatal() if absent (tests rely on exact names). */
    double get(const std::string &name) const;

    /** True if @p name is present. */
    bool has(const std::string &name) const;

    /** Kind of @p name; fatal() if absent. */
    StatKind kind(const std::string &name) const;

    /** All stats in insertion order. */
    const std::vector<std::pair<std::string, double>> &entries() const
    {
        return ordered;
    }

    /** Kind (and rate inputs) of entries()[i]. */
    const StatSemantics &semantics(std::size_t i) const
    {
        return meta[i].sem;
    }

    /**
     * The addAll prefixes entries()[i] was merged under ("llc.bank0."
     * for llc.bank0.hit_rate, "" when added directly).  A rate's
     * input counters resolve under it.
     */
    std::string prefixOf(std::size_t i) const
    {
        return ordered[i].first.substr(0, meta[i].prefixLen);
    }

    /** Render as aligned "name value" lines. */
    std::string toString() const;

  private:
    struct Meta
    {
        StatSemantics sem;
        std::size_t prefixLen;
    };

    void put(const std::string &name, double value,
             const StatSemantics &sem, std::size_t prefix_len);

    std::map<std::string, std::size_t> index;
    std::vector<std::pair<std::string, double>> ordered;
    std::vector<Meta> meta; //!< parallel to ordered
};

} // namespace garibaldi

#endif // GARIBALDI_COMMON_STATS_HH
