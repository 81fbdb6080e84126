#include "garibaldi/dppn_table.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

DppnTable::DppnTable(std::uint32_t entries, unsigned sctr_bits,
                     unsigned replace_threshold)
    : table(entries), sctrMax((1u << sctr_bits) - 1),
      replaceBelow(replace_threshold)
{
    checkPowerOf2(entries, "D_PPN table entries");
}

std::uint32_t
DppnTable::indexOf(Addr dppn) const
{
    return static_cast<std::uint32_t>(mix64(dppn)) &
           (static_cast<std::uint32_t>(table.size()) - 1);
}

std::optional<std::uint32_t>
DppnTable::allocate(Addr dppn)
{
    std::uint32_t idx = indexOf(dppn);
    Entry &e = table[idx];
    if (!e.valid) {
        e.dppn = dppn;
        e.sctr = replaceBelow;
        e.valid = true;
        return idx;
    }
    if (e.dppn == dppn) {
        if (e.sctr < sctrMax)
            ++e.sctr;
        ++nHits;
        return idx;
    }
    // Conflict: weaken the incumbent; replace only when it has decayed
    // below the threshold.
    if (e.sctr > 0)
        --e.sctr;
    if (e.sctr < replaceBelow) {
        e.dppn = dppn;
        e.sctr = replaceBelow;
        ++nReplacements;
        return idx;
    }
    ++nRejected;
    return std::nullopt;
}

std::optional<Addr>
DppnTable::lookup(std::uint32_t index) const
{
    if (index >= table.size() || !table[index].valid)
        return std::nullopt;
    return table[index].dppn;
}

StatSet
DppnTable::stats() const
{
    StatSet s;
    s.add("hits", static_cast<double>(nHits));
    s.add("replacements", static_cast<double>(nReplacements));
    s.add("rejected", static_cast<double>(nRejected));
    return s;
}

} // namespace garibaldi
