#include "mem/cache.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/stat_kind.hh"

namespace garibaldi
{

void
CacheStats::accumulate(const CacheStats &other)
{
    accesses += other.accesses;
    hits += other.hits;
    misses += other.misses;
    instrAccesses += other.instrAccesses;
    instrHits += other.instrHits;
    instrMisses += other.instrMisses;
    writebacksOut += other.writebacksOut;
    evictions += other.evictions;
    instrEvictions += other.instrEvictions;
    prefetchInserts += other.prefetchInserts;
    prefetchUseful += other.prefetchUseful;
    mshrMerges += other.mshrMerges;
    qbsQueries += other.qbsQueries;
    qbsProtections += other.qbsProtections;
    partitionInstrInserts += other.partitionInstrInserts;
    bankReservations += other.bankReservations;
    bankBackfills += other.bankBackfills;
    queuedAccesses += other.queuedAccesses;
    tagQueueCycles += other.tagQueueCycles;
    dataQueueCycles += other.dataQueueCycles;
    mshrStallCycles += other.mshrStallCycles;
    contentionModeled = contentionModeled || other.contentionModeled;
}

StatSet
CacheStats::toStatSet() const
{
    StatSet s;
    s.add("accesses", static_cast<double>(accesses));
    s.add("hits", static_cast<double>(hits));
    s.add("misses", static_cast<double>(misses));
    s.add("hit_rate", hitRate(), statkind::rate("hits", "accesses"));
    s.add("instr_accesses", static_cast<double>(instrAccesses));
    s.add("instr_hits", static_cast<double>(instrHits));
    s.add("instr_misses", static_cast<double>(instrMisses));
    s.add("instr_miss_rate", instrMissRate(),
          statkind::rate("instr_misses", "instr_accesses"));
    s.add("writebacks_out", static_cast<double>(writebacksOut));
    s.add("evictions", static_cast<double>(evictions));
    s.add("instr_evictions", static_cast<double>(instrEvictions));
    s.add("prefetch_inserts", static_cast<double>(prefetchInserts));
    s.add("prefetch_useful", static_cast<double>(prefetchUseful));
    s.add("mshr_merges", static_cast<double>(mshrMerges));
    s.add("qbs_queries", static_cast<double>(qbsQueries));
    s.add("qbs_protections", static_cast<double>(qbsProtections));
    // Queue counters appear only when the contention model ran, so a
    // model-off run exports exactly the historical stat surface.
    if (contentionModeled) {
        s.add("bank_reservations", static_cast<double>(bankReservations));
        s.add("bank_backfills", static_cast<double>(bankBackfills));
        s.add("queued_accesses", static_cast<double>(queuedAccesses));
        s.add("tag_queue_cycles", static_cast<double>(tagQueueCycles));
        s.add("data_queue_cycles", static_cast<double>(dataQueueCycles));
        s.add("queue_cycles",
              static_cast<double>(tagQueueCycles + dataQueueCycles));
        s.add("mshr_stall_cycles", static_cast<double>(mshrStallCycles));
    }
    return s;
}

Cache::Cache(const CacheParams &params_)
    : params(params_), pending(params_.mshrs)
{
    if (params.sizeBytes == 0 || params.assoc == 0)
        fatal(params.name, ": size and associativity must be non-zero");
    std::uint64_t lines = params.sizeBytes / kLineBytes;
    if (lines % params.assoc != 0)
        fatal(params.name, ": lines (", lines,
              ") not divisible by assoc (", params.assoc, ")");
    nSets = static_cast<std::uint32_t>(lines / params.assoc);
    checkPowerOf2(nSets, (params.name + " set count").c_str());
    if (params.instrPartitionWays >= params.assoc)
        fatal(params.name, ": instruction partition (",
              params.instrPartitionWays, " ways) must leave data ways");
    linesArr.resize(lines);
    probeTags.assign(lines, kInvalidProbeTag);
    repl = makePolicy(params.policy, nSets, params.assoc,
                      params.policyParams);
    pol.bind(params.policy, repl.get());
    if (params.bankServiceCycles > 0) {
        if (params.bankPorts == 0)
            fatal(params.name, ": bankPorts must be non-zero when the "
                  "contention model is on");
        tagBusyUntil.assign(params.bankPorts, 0);
        dataBusyUntil.assign(params.bankPorts, 0);
        stat.contentionModeled = true;
    }
}

Cycle
Cache::reserveSlot(std::vector<Cycle> &busy_until, Cycle at,
                   Cycle issued, std::uint64_t &queue_cycles)
{
    // Earliest-free slot wins; ties break on the lowest index so the
    // model is deterministic for any access order the simulator's
    // global-time heap produces.
    std::size_t best = 0;
    for (std::size_t i = 1; i < busy_until.size(); ++i)
        if (busy_until[i] < busy_until[best])
            best = i;
    // Requests can be issued slightly out of time order (cores are
    // interleaved with bounded skew).  A genuine straggler — one
    // issued behind the newest issue time seen — slots into capacity
    // the array had back then instead of queueing behind reservations
    // made after it.  The test is against the issue-time high-water
    // mark, NOT against busy_until (a same-cycle burst must queue for
    // real; a saturated backlog is never written off as free) and NOT
    // against @p at (fills book slots at future completion times,
    // which would misread every later probe as a straggler).
    if (issued + kBackfillSlack < lastArrival) {
        ++stat.bankReservations;
        ++stat.bankBackfills;
        return 0;
    }
    lastArrival = std::max(lastArrival, issued);
    Cycle start = std::max(busy_until[best], at);
    Cycle delay = start - at;
    busy_until[best] = start + params.bankServiceCycles;
    ++stat.bankReservations;
    if (delay > 0) {
        ++stat.queuedAccesses;
        queue_cycles += delay;
        // A wait this long means the port model is saturated far past
        // anything the paper's configurations produce — almost always
        // a mis-set bankServiceCycles/bankPorts pair.  Surface it
        // without drowning the log (stderr only; never fires in sane
        // configurations, so diffable stdout is untouched).
        constexpr Cycle kPathologicalWait = 1'000'000;
        if (delay > kPathologicalWait)
            warn_every_n(1024, params.name, ": access queued ", delay,
                         " cycles at a bank port; check "
                         "bankServiceCycles/bankPorts");
    }
    return delay;
}

Cycle
Cache::occupyTagPort(Cycle now)
{
    if (!contentionEnabled())
        return 0;
    return reserveSlot(tagBusyUntil, now, now, stat.tagQueueCycles);
}

Cycle
Cache::occupyDataPort(Cycle at, Cycle issued)
{
    if (!contentionEnabled())
        return 0;
    return reserveSlot(dataBusyUntil, at, issued, stat.dataQueueCycles);
}

std::uint32_t
Cache::setOf(Addr line_addr) const
{
    Addr ln = lineNumber(line_addr);
    if (params.indexSkipBits) {
        // Splice the bank-select field out of the line number so one
        // bank's lines spread over all of its sets.
        Addr low_mask = (Addr{1} << params.indexSkipShift) - 1;
        ln = (ln & low_mask) |
             ((ln >> (params.indexSkipShift + params.indexSkipBits))
              << params.indexSkipShift);
    }
    return static_cast<std::uint32_t>(ln) & (nSets - 1);
}

CacheLine &
Cache::frame(std::uint32_t set, std::uint32_t way)
{
    return linesArr[std::size_t{set} * params.assoc + way];
}

const CacheLine &
Cache::lineAt(std::uint32_t set, std::uint32_t way) const
{
    return linesArr[std::size_t{set} * params.assoc + way];
}

std::uint32_t
Cache::probeWay(std::uint32_t set, Addr tag) const
{
    const Addr *base = &probeTags[std::size_t{set} * params.assoc];
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        if (base[w] == tag)
            return w;
    }
    return params.assoc;
}

std::uint32_t
Cache::probeWayAndInvalid(std::uint32_t set, Addr tag,
                          std::uint32_t &first_invalid) const
{
    const Addr *base = &probeTags[std::size_t{set} * params.assoc];
    first_invalid = params.assoc;
    for (std::uint32_t w = 0; w < params.assoc; ++w) {
        if (base[w] == tag)
            return w;
        if (base[w] == kInvalidProbeTag && first_invalid == params.assoc)
            first_invalid = w;
    }
    return params.assoc;
}

CacheLine *
Cache::findInSet(std::uint32_t set, Addr tag)
{
    std::uint32_t w = probeWay(set, tag);
    if (w == params.assoc)
        return nullptr;
    return &linesArr[std::size_t{set} * params.assoc + w];
}

CacheLine *
Cache::findLine(Addr line_addr)
{
    return findInSet(setOf(line_addr), lineNumber(line_addr));
}

const CacheLine *
Cache::findLine(Addr line_addr) const
{
    return const_cast<Cache *>(this)->findLine(line_addr);
}

bool
Cache::contains(Addr line_addr) const
{
    return findLine(lineAlign(line_addr)) != nullptr;
}

bool
Cache::access(const MemAccess &acc)
{
    Addr line_addr = acc.lineAddr();
    std::uint32_t set = setOf(line_addr);
    Addr tag = lineNumber(line_addr);

    // One tag scan serves both the residency question the policy's
    // training hook asks and the hit path itself.
    std::uint32_t way = probeWay(set, tag);
    CacheLine *line =
        way < params.assoc
            ? &linesArr[std::size_t{set} * params.assoc + way]
            : nullptr;

    if (!acc.isPrefetch) {
        ++stat.accesses;
        if (acc.isInstr)
            ++stat.instrAccesses;
        pol.onAccess(set, acc, line != nullptr);
    }

    // Fig. 3(d) I-oracle: instructions always hit after first access and
    // occupy no capacity.
    if (params.instrOracle && acc.isInstr) {
        if (!oracleSeen.insert(tag)) {
            if (!acc.isPrefetch) {
                ++stat.hits;
                ++stat.instrHits;
            }
            return true;
        }
        if (!acc.isPrefetch) {
            ++stat.misses;
            ++stat.instrMisses;
        }
        return false;
    }

    if (line) {
        if (!acc.isPrefetch) {
            ++stat.hits;
            if (acc.isInstr)
                ++stat.instrHits;
            if (line->prefetched) {
                line->prefetched = false;
                ++stat.prefetchUseful;
            }
            pol.onHit(set, way, acc);
            line->lastUse = ++useTick;
            line->owner = acc.core;
            if (acc.isWrite)
                line->dirty = true;
        }
        return true;
    }

    if (!acc.isPrefetch) {
        ++stat.misses;
        if (acc.isInstr)
            ++stat.instrMisses;
    }
    return false;
}

std::uint32_t
Cache::pickPartitionVictim(std::uint32_t set, bool instr_class)
{
    // Way partitioning (Fig. 14(d)): ways [0, P) belong to instruction
    // lines, ways [P, assoc) to everything else.  Victims are chosen by
    // the cache's own LRU stamps within the region.
    std::uint32_t lo = instr_class ? 0 : params.instrPartitionWays;
    std::uint32_t hi = instr_class ? params.instrPartitionWays
                                   : params.assoc;
    std::uint32_t best = lo;
    Tick best_tick = ~Tick{0};
    for (std::uint32_t w = lo; w < hi; ++w) {
        CacheLine &l = frame(set, w);
        if (!l.valid)
            return w;
        if (l.lastUse < best_tick) {
            best_tick = l.lastUse;
            best = w;
        }
    }
    return best;
}

std::uint32_t
Cache::pickVictim(std::uint32_t set, const MemAccess &acc,
                  bool instr_class, std::uint32_t first_invalid)
{
    if (params.instrPartitionWays > 0)
        return pickPartitionVictim(set, instr_class);

    // Invalid way found by the caller's fused residency scan.
    if (first_invalid < params.assoc)
        return first_invalid;

    std::uint32_t way = pol.victim(set, acc);
    if (!companion)
        return way;

    // QBS-style selective instruction protection (Fig. 5(b)): query the
    // pair table when the nominated victim is an instruction line; a
    // protected victim is promoted and the policy re-queried, at most
    // maxProtectAttempts times per eviction.
    unsigned attempts = 0;
    while (attempts < companion->maxProtectAttempts()) {
        CacheLine &cand = frame(set, way);
        if (!cand.valid || !cand.isInstr)
            break;
        ++stat.qbsQueries;
        qbsCycles += companion->queryCost();
        if (!companion->shouldProtect(cand.tag << kLineShift))
            break;
        ++stat.qbsProtections;
        pol.promote(set, way);
        cand.lastUse = ++useTick;
        ++attempts;
        way = pol.victim(set, acc);
    }
    return way;
}

Eviction
Cache::insert(const MemAccess &acc, bool dirty, bool critical)
{
    Addr line_addr = acc.lineAddr();

    if (params.instrOracle && acc.isInstr)
        return {}; // oracle instructions never occupy the arrays

    std::uint32_t set = setOf(line_addr);
    Addr tag = lineNumber(line_addr);

    // One fused scan answers both insert-path questions: is the line
    // already resident, and which way is free if not.
    std::uint32_t first_invalid;
    std::uint32_t resident_way = probeWayAndInvalid(set, tag,
                                                    first_invalid);
    if (resident_way < params.assoc) {
        // Already present (e.g. writeback into a still-resident line or
        // a prefetch racing a demand fill): just merge status bits.
        CacheLine &resident = frame(set, resident_way);
        resident.dirty = resident.dirty || dirty || acc.isWrite;
        return {};
    }

    // Partition admission: only critical instruction lines may claim
    // the instruction region when the Emissary-style filter is on.
    bool instr_class = acc.isInstr &&
        (!params.partitionCriticalOnly || critical);
    if (params.instrPartitionWays > 0 && instr_class)
        ++stat.partitionInstrInserts;

    std::uint32_t way = pickVictim(set, acc, instr_class, first_invalid);
    CacheLine &l = frame(set, way);

    Eviction ev;
    if (l.valid) {
        ev.valid = true;
        ev.lineAddr = l.tag << kLineShift;
        ev.dirty = l.dirty;
        ev.isInstr = l.isInstr;
        ++stat.evictions;
        if (l.isInstr)
            ++stat.instrEvictions;
        if (ev.dirty)
            ++stat.writebacksOut;
        pol.onEvict(set, way);
        if (companion)
            companion->observeEvict(ev.lineAddr, ev.isInstr);
    }

    l.tag = lineNumber(line_addr);
    l.valid = true;
    l.dirty = dirty || acc.isWrite;
    l.isInstr = acc.isInstr;
    l.prefetched = acc.isPrefetch;
    l.lastUse = ++useTick;
    l.owner = acc.core;
    probeTags[std::size_t{set} * params.assoc + way] = l.tag;
    pol.onInsert(set, way, acc);
    if (acc.isPrefetch)
        ++stat.prefetchInserts;
    if (companion)
        companion->observeInsert(line_addr, acc.isInstr, acc.isPrefetch);
    return ev;
}

void
Cache::setDirty(Addr line_addr)
{
    if (CacheLine *l = findLine(lineAlign(line_addr)))
        l->dirty = true;
}

bool
Cache::invalidate(Addr line_addr)
{
    line_addr = lineAlign(line_addr);
    std::uint32_t set = setOf(line_addr);
    Addr tag = lineNumber(line_addr);
    std::uint32_t w = probeWay(set, tag);
    if (w == params.assoc)
        return false;
    CacheLine &l = frame(set, w);
    bool was_dirty = l.dirty;
    pol.onEvict(set, w);
    if (companion)
        companion->observeEvict(line_addr, l.isInstr);
    l.invalidate();
    probeTags[std::size_t{set} * params.assoc + w] = kInvalidProbeTag;
    return was_dirty;
}

void
Cache::addPending(Addr line_addr, Cycle ready, Cycle now)
{
    // A fill booked to complete before its own issue instant would make
    // mshrsFull()/pendingReady() lie about in-flight state — the exact
    // class of bug the PR-5 backfill completesAt fix closed.
    SIM_ASSERT(ready >= now, params.name, ": MSHR booking for line ",
               lineNumber(line_addr), " completes at ", ready,
               " which precedes the caller's clock ", now);
    pending.set(lineNumber(line_addr), ready);
}

Cycle
Cache::pendingReady(Addr line_addr, Cycle now)
{
    Addr key = lineNumber(line_addr);
    Cycle ready = pending.get(key);
    if (ready == 0)
        return 0;
    if (ready <= now) {
        pending.erase(key);
        return 0;
    }
    ++stat.mshrMerges;
    return ready;
}

bool
Cache::mshrsFull(Cycle now)
{
    if (pending.size() < params.mshrs)
        return false;
    // Lazily prune completed fills before declaring pressure.
    pending.pruneExpired(now);
    return pending.size() >= params.mshrs;
}

void
Cache::setCompanion(LlcCompanion *companion_)
{
    companion = companion_;
}

Cycle
Cache::drainQbsCycles()
{
    Cycle c = qbsCycles;
    qbsCycles = 0;
    return c;
}

} // namespace garibaldi
