/**
 * @file
 * Allocation-free open-addressed tables for the access pipeline's hot
 * path, replacing the std::unordered_map/set structures that dominated
 * lookup cost:
 *
 *  - PendingTable:        line → fill-ready cycle (the MSHR book),
 *  - FlatLineSet:         set of line numbers (the I-oracle's memory),
 *  - DecayingCounterTable: bounded line → saturating counter map with
 *                          periodic decay (instruction criticality).
 *
 * All three use linear probing over power-of-two arrays keyed by line
 * number.  Line numbers are physical addresses shifted right by
 * kLineShift, so they are < 2^58 and the two all-ones sentinels can
 * never collide with a real key.
 */

#ifndef GARIBALDI_MEM_FLAT_TABLES_HH
#define GARIBALDI_MEM_FLAT_TABLES_HH

#include <cstddef>
#include <vector>

#include "common/intmath.hh"
#include "common/types.hh"

namespace garibaldi
{

namespace flat
{

constexpr Addr kEmptyKey = ~Addr{0};
constexpr Addr kTombKey = ~Addr{0} - 1;

inline std::size_t
tableCapacity(std::size_t expected)
{
    std::size_t cap = 16;
    while (cap < expected * 2)
        cap <<= 1;
    return cap;
}

} // namespace flat

/**
 * Open-addressed line → ready-cycle map modeling in-flight fills.
 *
 * Matches the lazy-expiry semantics of the map it replaces (entries are
 * only observed-and-erased by lookups), and is kept small by its owner:
 * the simulator retires completed fills at a global simulated-time
 * floor (Cache::retireFills), and mshrsFull() prunes at the caller's
 * clock, so a book holds little more than the fills still in flight and
 * pruneExpired() is a plain sweep of the table.
 *
 * Callers that never set a floor (unit tests, hierarchy-only benches)
 * stay bounded on long runs too: when the table would grow, entries
 * whose ready time lies more than kExpirySlack cycles behind the latest
 * scheduled fill are swept first.  The simulator bounds cross-core
 * clock skew to a few thousand cycles, so no core can still observe
 * such an entry as in flight and the sweep is behavior-neutral.
 */
class PendingTable
{
  public:
    explicit PendingTable(std::size_t expected)
        : keys(flat::tableCapacity(expected), flat::kEmptyKey),
          ready(flat::tableCapacity(expected), 0),
          baseCap(keys.size())
    {
    }

    /** Record (or refresh) an in-flight fill of @p key. */
    void
    set(Addr key, Cycle ready_at)
    {
        if (ready_at > watermark)
            watermark = ready_at;
        if ((filled + tombs + 1) * 4 >= keys.size() * 3)
            compact();
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        std::size_t first_tomb = keys.size();
        while (true) {
            if (keys[i] == key) {
                ready[i] = ready_at;
                return;
            }
            if (keys[i] == flat::kEmptyKey) {
                if (first_tomb != keys.size()) {
                    i = first_tomb;
                    --tombs;
                }
                keys[i] = key;
                ready[i] = ready_at;
                ++filled;
                return;
            }
            if (keys[i] == flat::kTombKey && first_tomb == keys.size())
                first_tomb = i;
            i = (i + 1) & mask;
        }
    }

    /** Ready cycle of @p key, or 0 when no fill is in flight. */
    Cycle
    get(Addr key) const
    {
        if (filled == 0)
            return 0;
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key)
                return ready[i];
            i = (i + 1) & mask;
        }
        return 0;
    }

    /** Drop @p key if present. */
    void
    erase(Addr key)
    {
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key) {
                keys[i] = flat::kTombKey;
                --filled;
                ++tombs;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /** Drop every entry whose ready time has passed @p now. */
    void
    pruneExpired(Cycle now)
    {
        if (filled == 0)
            return;
        // Branch-free: whether a slot expires is unpredictable.
        std::size_t dropped = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            bool expired = keys[i] < flat::kTombKey && ready[i] <= now;
            keys[i] = expired ? flat::kTombKey : keys[i];
            dropped += expired;
        }
        filled -= dropped;
        tombs += dropped;
        // A sweep that leaves mostly tombstones rebuilds the table at
        // a size that fits the survivors, so the next sweep is short.
        if (tombs * 2 >= keys.size())
            compact();
    }

    std::size_t size() const { return filled; }

  private:
    /**
     * Expired-entry slack before compact() may drop an entry.
     * Dropping is invisible only while no later query's clock can
     * precede the dropped entry's ready time: a query can trail the
     * watermark (the newest booked completion) by a full fill latency
     * plus cross-core skew, and under saturated-contention sweeps that
     * tail reaches tens of thousands of cycles — a 64k horizon was
     * observed to flip pendingReady() answers on the 16-core banked
     * contention mix.  256k cycles is far beyond any latency the
     * timing model can produce.  (Routine cleanup is pruneExpired(),
     * which is exact; this slack only gates the compaction fallback.)
     */
    static constexpr Cycle kExpirySlack = Cycle{1} << 18;

    void
    compact()
    {
        // First try reclaiming long-expired entries in place; grow only
        // when the table is genuinely full of live fills.
        std::size_t live = 0;
        Cycle horizon =
            watermark > kExpirySlack ? watermark - kExpirySlack : 0;
        for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i] < flat::kTombKey && ready[i] > horizon)
                ++live;
        std::size_t cap = keys.size();
        if ((live + 1) * 4 >= cap * 3)
            cap <<= 1;
        else
            while (cap > baseCap && (live + 1) * 8 <= cap)
                cap >>= 1;

        std::vector<Addr> old_keys(cap, flat::kEmptyKey);
        std::vector<Cycle> old_ready(cap, 0);
        old_keys.swap(keys);
        old_ready.swap(ready);
        filled = 0;
        tombs = 0;
        std::size_t mask = keys.size() - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] >= flat::kTombKey || old_ready[i] <= horizon)
                continue;
            std::size_t j =
                static_cast<std::size_t>(mix64(old_keys[i])) & mask;
            while (keys[j] != flat::kEmptyKey)
                j = (j + 1) & mask;
            keys[j] = old_keys[i];
            ready[j] = old_ready[i];
            ++filled;
        }
    }

    std::vector<Addr> keys;
    std::vector<Cycle> ready;
    std::size_t baseCap;      //!< construction capacity (shrink floor)
    std::size_t filled = 0;
    std::size_t tombs = 0;
    Cycle watermark = 0;
};

/** Open-addressed insert-only set of line numbers. */
class FlatLineSet
{
  public:
    explicit FlatLineSet(std::size_t expected = 1024)
        : keys(flat::tableCapacity(expected), flat::kEmptyKey)
    {
    }

    bool
    contains(Addr key) const
    {
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key)
                return true;
            i = (i + 1) & mask;
        }
        return false;
    }

    /** @return true when @p key was newly inserted. */
    bool
    insert(Addr key)
    {
        if ((filled + 1) * 4 >= keys.size() * 3)
            grow();
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key)
                return false;
            i = (i + 1) & mask;
        }
        keys[i] = key;
        ++filled;
        return true;
    }

    std::size_t size() const { return filled; }

  private:
    void
    grow()
    {
        std::vector<Addr> old(keys.size() * 2, flat::kEmptyKey);
        old.swap(keys);
        std::size_t mask = keys.size() - 1;
        for (Addr k : old) {
            if (k == flat::kEmptyKey)
                continue;
            std::size_t i = static_cast<std::size_t>(mix64(k)) & mask;
            while (keys[i] != flat::kEmptyKey)
                i = (i + 1) & mask;
            keys[i] = k;
        }
    }

    std::vector<Addr> keys;
    std::size_t filled = 0;
};

/**
 * Open-addressed line → value map with erase support (directory
 * entries and similar per-line bookkeeping off std::unordered_map).
 */
template <typename V>
class FlatLineMap
{
  public:
    explicit FlatLineMap(std::size_t expected = 256)
        : keys(flat::tableCapacity(expected), flat::kEmptyKey),
          values(flat::tableCapacity(expected))
    {
    }

    /** Value of @p key, inserting a default-constructed one if absent. */
    V &
    ref(Addr key)
    {
        if ((filled + tombs + 1) * 4 >= keys.size() * 3)
            rehash();
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        std::size_t first_tomb = keys.size();
        while (true) {
            if (keys[i] == key)
                return values[i];
            if (keys[i] == flat::kEmptyKey) {
                if (first_tomb != keys.size()) {
                    i = first_tomb;
                    --tombs;
                }
                keys[i] = key;
                values[i] = V{};
                ++filled;
                return values[i];
            }
            if (keys[i] == flat::kTombKey && first_tomb == keys.size())
                first_tomb = i;
            i = (i + 1) & mask;
        }
    }

    V *
    find(Addr key)
    {
        if (filled == 0)
            return nullptr;
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key)
                return &values[i];
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatLineMap *>(this)->find(key);
    }

    void
    erase(Addr key)
    {
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key) {
                keys[i] = flat::kTombKey;
                values[i] = V{};
                --filled;
                ++tombs;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    std::size_t size() const { return filled; }

    /** Visit every live (key, value) pair; iteration order is the slot
     *  order, which callers must not depend on. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i] < flat::kTombKey)
                fn(keys[i], values[i]);
    }

  private:
    void
    rehash()
    {
        std::size_t cap = keys.size();
        if ((filled + 1) * 4 >= cap * 3)
            cap <<= 1;
        std::vector<Addr> old_keys(cap, flat::kEmptyKey);
        std::vector<V> old_values(cap);
        old_keys.swap(keys);
        old_values.swap(values);
        filled = 0;
        tombs = 0;
        std::size_t mask = keys.size() - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] >= flat::kTombKey)
                continue;
            std::size_t j =
                static_cast<std::size_t>(mix64(old_keys[i])) & mask;
            while (keys[j] != flat::kEmptyKey)
                j = (j + 1) & mask;
            keys[j] = old_keys[i];
            values[j] = old_values[i];
            ++filled;
        }
    }

    std::vector<Addr> keys;
    std::vector<V> values;
    std::size_t filled = 0;
    std::size_t tombs = 0;
};

/**
 * Bounded line → saturating-counter map.  When the table reaches its
 * occupancy limit every counter is halved and zeroed entries are
 * evicted, so stale lines age out and memory stays fixed no matter how
 * long the run (the unbounded-map fix for the criticality tracker).
 */
class DecayingCounterTable
{
  public:
    explicit DecayingCounterTable(std::size_t entries)
        : keys(flat::tableCapacity(entries), flat::kEmptyKey),
          counts(flat::tableCapacity(entries), 0)
    {
    }

    /** Bump @p key's saturating counter; @return the new count. */
    std::uint8_t
    increment(Addr key)
    {
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key) {
                if (counts[i] < 255)
                    ++counts[i];
                return counts[i];
            }
            i = (i + 1) & mask;
        }
        if ((filled + 1) * 4 >= keys.size() * 3) {
            decay();
            // Re-probe: decay moved survivors around.
            i = static_cast<std::size_t>(mix64(key)) & mask;
            while (keys[i] != flat::kEmptyKey) {
                if (keys[i] == key) {
                    if (counts[i] < 255)
                        ++counts[i];
                    return counts[i];
                }
                i = (i + 1) & mask;
            }
            if ((filled + 1) * 4 >= keys.size() * 3)
                return 1; // still saturated: observe without tracking
        }
        keys[i] = key;
        counts[i] = 1;
        ++filled;
        return 1;
    }

    std::size_t size() const { return filled; }

  private:
    void
    decay()
    {
        std::vector<Addr> old_keys(keys.size(), flat::kEmptyKey);
        std::vector<std::uint8_t> old_counts(keys.size(), 0);
        old_keys.swap(keys);
        old_counts.swap(counts);
        filled = 0;
        std::size_t mask = keys.size() - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == flat::kEmptyKey)
                continue;
            std::uint8_t halved = old_counts[i] >> 1;
            if (halved == 0)
                continue;
            std::size_t j =
                static_cast<std::size_t>(mix64(old_keys[i])) & mask;
            while (keys[j] != flat::kEmptyKey)
                j = (j + 1) & mask;
            keys[j] = old_keys[i];
            counts[j] = halved;
            ++filled;
        }
    }

    std::vector<Addr> keys;
    std::vector<std::uint8_t> counts;
    std::size_t filled = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_FLAT_TABLES_HH
