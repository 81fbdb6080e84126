/**
 * @file
 * Allocation-free open-addressed tables for the access pipeline's hot
 * path, replacing the std::unordered_map/set structures that dominated
 * lookup cost.
 *
 * FlatLineMap is the one table: linear probing over power-of-two SoA
 * arrays keyed by line number, with sentinel empty/tombstone keys and
 * mix64 hashing.  Line numbers are physical addresses shifted right by
 * kLineShift (page numbers are shifted further), so keys are < 2^58
 * and the two all-ones sentinels can never collide with a real key.
 * The other per-line books are short uses of it:
 *
 *  - PendingTable:         line → fill-ready cycle (the MSHR book),
 *  - DecayingCounterTable: bounded line → saturating counter map with
 *                          periodic decay (instruction criticality).
 */

#ifndef GARIBALDI_MEM_FLAT_TABLES_HH
#define GARIBALDI_MEM_FLAT_TABLES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/intmath.hh"
#include "common/types.hh"

namespace garibaldi
{

namespace flat
{

/** Slots of a table sized for @p expected entries (pow2, ≥ 2×). */
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
 * Open-addressed line → value map.  Keys and values live in separate
 * arrays, allocated on the first insert at the construction capacity.
 * An insert that would take occupancy (live + tombstones) to 3/4 first
 * rebuilds the table, doubling it when the live entries alone reach
 * that load; it shrinks only in compact().
 */
template <typename V>
class FlatLineMap
{
  public:
    explicit FlatLineMap(std::size_t expected = 256)
        : baseCap(flat::tableCapacity(expected))
    {
    }

    /** Value of @p key, inserting a value-initialized one if absent. */
    V &
    ref(Addr key)
    {
        if (atLoadLimit())
            rehash(grownCapacity());
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        std::size_t first_tomb = keys.size();
        while (true) {
            if (keys[i] == key)
                return values[i];
            if (keys[i] == kEmptyKey) {
                if (first_tomb != keys.size()) {
                    i = first_tomb;
                    --tombs;
                }
                keys[i] = key;
                values[i] = V{};
                ++filled;
                return values[i];
            }
            if (keys[i] == kTombKey && first_tomb == keys.size())
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
        while (keys[i] != kEmptyKey) {
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

    /** Drop @p key if present. */
    void
    erase(Addr key)
    {
        if (V *v = find(key)) {
            keys[static_cast<std::size_t>(v - values.data())] = kTombKey;
            --filled;
            ++tombs;
        }
    }

    /**
     * Drop every entry for which @p pred(key, value) holds.  @p pred
     * sees only live entries and may change the value in place;
     * survivors keep the change.  A sweep that leaves at least half the
     * slots tombstones ends in compact().
     * @return true when the sweep ended in compact().
     */
    template <typename Pred>
    bool
    eraseIf(Pred &&pred)
    {
        if (keys.empty())
            return false;
        std::size_t dropped = 0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            bool dead = keys[i] < kTombKey && pred(keys[i], values[i]);
            keys[i] = dead ? kTombKey : keys[i];
            dropped += dead;
        }
        filled -= dropped;
        tombs += dropped;
        if (tombs * 2 < keys.size())
            return false;
        compact();
        return true;
    }

    /** Rebuild without tombstones at the smallest capacity that fits
     *  the live entries, but never below the construction capacity. */
    void
    compact()
    {
        std::size_t cap = keys.size();
        while (cap > baseCap && (filled + 1) * 8 <= cap)
            cap >>= 1;
        rehash(cap);
    }

    /** True when the next ref() rebuilds the table before probing. */
    bool
    atLoadLimit() const
    {
        return (filled + tombs + 1) * 4 >= keys.size() * 3;
    }

    std::size_t size() const { return filled; }

    /** Slots allocated: 0 until the first insert. */
    std::size_t capacity() const { return keys.size(); }

    /** Visit every live (key, value) pair; iteration order is the slot
     *  order, which callers must not depend on. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i] < kTombKey)
                fn(keys[i], values[i]);
    }

  private:
    static constexpr Addr kEmptyKey = ~Addr{0};
    static constexpr Addr kTombKey = ~Addr{0} - 1;

    /** Capacity for ref()'s rebuild: the first allocation, a doubling
     *  when the live entries alone are at the load limit, or the same
     *  size to clear tombstones. */
    std::size_t
    grownCapacity() const
    {
        if (keys.empty())
            return baseCap;
        std::size_t cap = keys.size();
        return (filled + 1) * 4 >= cap * 3 ? cap * 2 : cap;
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Addr> old_keys(cap, kEmptyKey);
        std::vector<V> old_values(cap);
        old_keys.swap(keys);
        old_values.swap(values);
        filled = 0;
        tombs = 0;
        std::size_t mask = cap - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] >= kTombKey)
                continue;
            std::size_t j =
                static_cast<std::size_t>(mix64(old_keys[i])) & mask;
            while (keys[j] != kEmptyKey)
                j = (j + 1) & mask;
            keys[j] = old_keys[i];
            values[j] = old_values[i];
            ++filled;
        }
    }

    std::vector<Addr> keys;
    std::vector<V> values;
    std::size_t baseCap; //!< first allocation and compact()'s floor
    std::size_t filled = 0;
    std::size_t tombs = 0;
};

/**
 * Line → ready-cycle map modeling in-flight fills.
 *
 * Matches the lazy-expiry semantics of the map it replaces (entries are
 * only observed-and-erased by lookups), and is kept small by its owner:
 * the simulator retires completed fills at a global simulated-time
 * floor (Cache::retireFills), and mshrsFull() prunes at the caller's
 * clock, so a book holds little more than the fills still in flight and
 * pruneExpired() is a plain sweep of the table.
 *
 * Callers that never set a floor (unit tests, hierarchy-only benches)
 * stay bounded on long runs too: every rebuild of the table drops the
 * entries whose ready time lies more than kExpirySlack cycles behind
 * the latest scheduled fill.  An insert that would rebuild sweeps them
 * first, and a pruning sweep that ends in a rebuild drops them too.
 */
class PendingTable
{
  public:
    explicit PendingTable(std::size_t expected) : book(expected) {}

    /** Record (or refresh) an in-flight fill of @p key. */
    void
    set(Addr key, Cycle ready_at)
    {
        if (ready_at > watermark)
            watermark = ready_at;
        if (book.atLoadLimit()) {
            // Reclaim long-expired entries first; the table grows only
            // when it is genuinely full of live fills.
            Cycle h = horizon();
            book.eraseIf([h](Addr, Cycle r) { return r <= h; });
        }
        book.ref(key) = ready_at;
    }

    /** Ready cycle of @p key, or 0 when no fill is in flight. */
    Cycle
    get(Addr key) const
    {
        const Cycle *ready = book.find(key);
        return ready ? *ready : 0;
    }

    /** Drop @p key if present. */
    void erase(Addr key) { book.erase(key); }

    /** Drop every entry whose ready time has passed @p now. */
    void
    pruneExpired(Cycle now)
    {
        if (book.size() == 0 ||
            !book.eraseIf([now](Addr, Cycle r) { return r <= now; }))
            return;
        // The sweep rebuilt the table.  A rebuild drops the long-expired
        // entries too, as in set(), so drop them and rebuild again.
        Cycle h = horizon();
        if (h > now) {
            book.eraseIf([h](Addr, Cycle r) { return r <= h; });
            book.compact();
        }
    }

    std::size_t size() const { return book.size(); }

  private:
    /**
     * Expired-entry slack before set() may drop an entry.  Dropping is
     * invisible only while no later query's clock can precede the
     * dropped entry's ready time: a query can trail the watermark (the
     * newest booked completion) by a full fill latency plus cross-core
     * skew, and under saturated-contention sweeps that tail reaches
     * tens of thousands of cycles — a 64k horizon was observed to flip
     * pendingReady() answers on the 16-core banked contention mix.
     * 256k cycles is far beyond any latency the timing model can
     * produce.  (Routine cleanup is pruneExpired()'s sweep, which is
     * exact; this slack only gates what a table rebuild drops.)
     */
    static constexpr Cycle kExpirySlack = Cycle{1} << 18;

    /** Ready times at or before this are long expired. */
    Cycle
    horizon() const
    {
        return watermark > kExpirySlack ? watermark - kExpirySlack : 0;
    }

    FlatLineMap<Cycle> book;
    Cycle watermark = 0;
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
        : counts(entries), limit(flat::tableCapacity(entries) * 3 / 4)
    {
    }

    /** Bump @p key's saturating counter; @return the new count. */
    std::uint8_t
    increment(Addr key)
    {
        if (std::uint8_t *c = counts.find(key))
            return bump(*c);
        if (counts.size() + 1 >= limit) {
            counts.eraseIf([](Addr, std::uint8_t &c) {
                c >>= 1;
                return c == 0;
            });
            if (std::uint8_t *c = counts.find(key))
                return bump(*c);
            if (counts.size() + 1 >= limit)
                return 1; // still saturated: observe without tracking
        }
        counts.ref(key) = 1;
        return 1;
    }

    std::size_t size() const { return counts.size(); }

  private:
    static std::uint8_t
    bump(std::uint8_t &c)
    {
        if (c < 255)
            ++c;
        return c;
    }

    /** Stays at its construction capacity: inserts stop short of the
     *  load that would double it, and decay never shrinks below it. */
    FlatLineMap<std::uint8_t> counts;
    std::size_t limit; //!< occupancy that triggers a decay
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_FLAT_TABLES_HH
