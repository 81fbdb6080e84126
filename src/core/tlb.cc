#include "core/tlb.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

Tlb::Tlb(std::uint32_t entries, std::uint32_t assoc_)
    : assoc(assoc_)
{
    if (entries == 0 || assoc_ == 0 || entries % assoc_ != 0)
        fatal("TLB geometry invalid: ", entries, " entries, assoc ",
              assoc_);
    numSets = entries / assoc_;
    entriesArr.resize(entries);
}

std::uint32_t
Tlb::setOf(Addr vpn) const
{
    return static_cast<std::uint32_t>(mix64(vpn) % numSets);
}

bool
Tlb::access(Addr vpn)
{
    std::uint32_t set = setOf(vpn);
    Entry *base = &entriesArr[std::size_t{set} * assoc];
    for (std::uint32_t w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.vpn == vpn) {
            e.lastUse = ++tick;
            ++nHits;
            return true;
        }
    }
    // Victim: first invalid way, else the oldest.
    Entry *lru = base;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (!base[w].valid) {
            lru = &base[w];
            break;
        }
        if (base[w].lastUse < lru->lastUse)
            lru = &base[w];
    }
    lru->vpn = vpn;
    lru->valid = true;
    lru->lastUse = ++tick;
    ++nMisses;
    return false;
}

bool
Tlb::probe(Addr vpn) const
{
    std::uint32_t set = setOf(vpn);
    const Entry *base = &entriesArr[std::size_t{set} * assoc];
    for (std::uint32_t w = 0; w < assoc; ++w)
        if (base[w].valid && base[w].vpn == vpn)
            return true;
    return false;
}

TlbHierarchy::TlbHierarchy(const Params &params_)
    : params(params_),
      itlb(params_.itlbEntries, std::min<std::uint32_t>(
          params_.itlbEntries, 8)),
      dtlb(params_.dtlbEntries, std::min<std::uint32_t>(
          params_.dtlbEntries, 6)),
      stlb(params_.stlbEntries, params_.stlbAssoc)
{
}

Cycle
TlbHierarchy::accessThrough(Tlb &first, Addr vpn, std::uint64_t &walks)
{
    if (first.access(vpn))
        return 0;
    if (stlb.access(vpn))
        return params.stlbHitCost;
    ++walks;
    return params.walkCost;
}

Cycle
TlbHierarchy::accessInstr(Addr vpn)
{
    return accessThrough(itlb, vpn, iWalks);
}

Cycle
TlbHierarchy::accessData(Addr vpn)
{
    return accessThrough(dtlb, vpn, dWalks);
}

StatSet
TlbHierarchy::stats() const
{
    StatSet s;
    s.add("itlb_hits", static_cast<double>(itlb.hits()));
    s.add("itlb_misses", static_cast<double>(itlb.misses()));
    s.add("dtlb_hits", static_cast<double>(dtlb.hits()));
    s.add("dtlb_misses", static_cast<double>(dtlb.misses()));
    s.add("stlb_hits", static_cast<double>(stlb.hits()));
    s.add("stlb_misses", static_cast<double>(stlb.misses()));
    s.add("instr_walks", static_cast<double>(iWalks));
    s.add("data_walks", static_cast<double>(dWalks));
    return s;
}

} // namespace garibaldi
