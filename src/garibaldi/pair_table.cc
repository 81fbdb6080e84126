#include "garibaldi/pair_table.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

PairTable::PairTable(const GaribaldiParams &params_, DppnTable &dppn_)
    : params(params_), dppn(dppn_),
      numColors(1u << params_.colorBits),
      costMax((1u << params_.missCostBits) - 1),
      table(params_.pairTableEntries)
{
    checkPowerOf2(params.pairTableEntries, "pair table entries");
    if (params.k > kMaxFields)
        fatal("pair table k (", params.k, ") exceeds the supported ",
              kMaxFields, " DL_PA fields");
}

std::size_t
PairTable::indexOf(Addr il_pa) const
{
    return static_cast<std::size_t>(mix64(lineNumber(il_pa))) &
           (table.size() - 1);
}

unsigned
PairTable::agedCostOf(const Entry &e, unsigned color) const
{
    // One cost point decays per elapsed color step (§5.2 Fig. 9(c)).
    unsigned dist = colorDistance(e.color, color);
    return e.missCost > dist ? e.missCost - dist : 0;
}

void
PairTable::initEntry(Entry &e, Addr il_tag, unsigned color)
{
    e.ilTag = il_tag;
    e.missCost = static_cast<std::uint8_t>(
        params.missCostInit > costMax ? costMax : params.missCostInit);
    e.color = static_cast<std::uint8_t>(color);
    e.valid = true;
    for (auto &f : e.fields)
        f = DlField{}; // invalid, old bit armed
    ++nAllocs;
}

void
PairTable::refreshColor(Entry &e, unsigned color)
{
    if (e.color == color)
        return;
    // Lazy aging: fold the elapsed colors into the stored cost, then
    // stamp the entry with the current color.  A color change also
    // re-arms the old bits (Fig. 10(b)).
    e.missCost = static_cast<std::uint8_t>(agedCostOf(e, color));
    e.color = static_cast<std::uint8_t>(color);
    for (auto &f : e.fields)
        f.oldBit = true;
}

bool
PairTable::fieldMatches(const DlField &f, Addr dppn_val,
                        unsigned dppo) const
{
    if (!f.valid || f.dppo != dppo)
        return false;
    auto stored = dppn.lookup(f.dppnIdx);
    return stored && *stored == dppn_val;
}

void
PairTable::updateFields(Entry &e, Addr dl_pa)
{
    if (params.k == 0)
        return;
    Addr dppn_val = pageNumber(dl_pa);
    unsigned dppo = static_cast<unsigned>(lineInPage(dl_pa));

    // Rule 1: a matching field is reinforced and un-armed.
    for (unsigned i = 0; i < params.k; ++i) {
        DlField &f = e.fields[i];
        if (fieldMatches(f, dppn_val, dppo)) {
            if (f.sctr < (1u << params.sctrBits) - 1)
                ++f.sctr;
            f.oldBit = false;
            return;
        }
    }

    // Rule 2: take the first armed (old-bit set or never-used) field;
    // when none is armed the access bypasses recording entirely.
    DlField *slot = nullptr;
    for (unsigned i = 0; i < params.k; ++i) {
        DlField &f = e.fields[i];
        if (!f.valid || f.oldBit) {
            slot = &f;
            break;
        }
    }
    if (!slot) {
        ++nFieldBypasses;
        return;
    }

    if (slot->valid) {
        slot->oldBit = false;
        if (slot->sctr > 0)
            --slot->sctr;
        // Rule 3: replace only once the incumbent has decayed.
        if (slot->sctr >= params.sctrReplaceThreshold)
            return;
    }

    auto idx = dppn.allocate(dppn_val);
    if (!idx)
        return; // frame not representable right now; keep incumbent
    slot->dppnIdx = *idx;
    slot->dppo = static_cast<std::uint8_t>(dppo);
    slot->sctr = static_cast<std::uint8_t>(params.sctrReplaceThreshold);
    slot->oldBit = false;
    slot->valid = true;
    ++nFieldRecords;
}

void
PairTable::updateOnDataAccess(Addr il_pa, Addr dl_pa, bool data_hit,
                              unsigned color, unsigned threshold)
{
    ++nUpdates;
    Entry &e = table[indexOf(il_pa)];
    Addr tag = lineNumber(il_pa);

    if (!e.valid) {
        initEntry(e, tag, color);
    } else if (e.ilTag != tag) {
        // Collision: the incumbent survives while its aged cost still
        // clears the threshold; the aged cost and color are folded in
        // (§5.2 "Replacement of Pair Table Entries").
        unsigned aged = agedCostOf(e, color);
        if (aged > threshold) {
            e.missCost = static_cast<std::uint8_t>(aged);
            if (e.color != color) {
                e.color = static_cast<std::uint8_t>(color);
                for (auto &f : e.fields)
                    f.oldBit = true;
            }
            ++nCollisionsPreserved;
            return;
        }
        ++nCollisionsReplaced;
        initEntry(e, tag, color);
    } else {
        refreshColor(e, color);
    }

    // Hot data propagates to the instruction's cost; cold data decays
    // it (Fig. 5(a)).
    if (data_hit) {
        if (e.missCost < costMax)
            ++e.missCost;
    } else if (e.missCost > 0) {
        --e.missCost;
    }

    updateFields(e, dl_pa);
}

void
PairTable::onInstrMiss(Addr il_pa)
{
    Entry &e = table[indexOf(il_pa)];
    if (!e.valid || e.ilTag != lineNumber(il_pa))
        return;
    for (unsigned i = 0; i < params.k; ++i)
        e.fields[i].oldBit = true;
}

PairQueryResult
PairTable::query(Addr il_pa, unsigned color)
{
    const Entry &e = table[indexOf(il_pa)];
    ++nQueries;
    if (!e.valid || e.ilTag != lineNumber(il_pa))
        return {};
    return {true, agedCostOf(e, color)};
}

void
PairTable::collectPrefetchCandidates(Addr il_pa,
                                     std::vector<Addr> &out) const
{
    const Entry &e = table[indexOf(il_pa)];
    if (!e.valid || e.ilTag != lineNumber(il_pa))
        return;
    for (unsigned i = 0; i < params.k; ++i) {
        const DlField &f = e.fields[i];
        if (!f.valid)
            continue;
        auto frame = dppn.lookup(f.dppnIdx);
        if (!frame)
            continue;
        out.push_back((*frame << kPageShift) |
                      (Addr{f.dppo} << kLineShift));
    }
}

PairTable::DebugEntry
PairTable::debugEntry(Addr il_pa) const
{
    const Entry &e = table[indexOf(il_pa)];
    DebugEntry d;
    d.valid = e.valid;
    d.tagMatch = e.valid && e.ilTag == lineNumber(il_pa);
    d.missCost = e.missCost;
    d.color = e.color;
    for (unsigned i = 0; i < kMaxFields; ++i) {
        const DlField &f = e.fields[i];
        d.fields[i].valid = f.valid;
        d.fields[i].oldBit = f.oldBit;
        d.fields[i].sctr = f.sctr;
        if (f.valid) {
            auto frame = dppn.lookup(f.dppnIdx);
            if (frame)
                d.fields[i].dlpa = (*frame << kPageShift) |
                                   (Addr{f.dppo} << kLineShift);
        }
    }
    return d;
}

StatSet
PairTable::stats() const
{
    StatSet s;
    s.add("updates", static_cast<double>(nUpdates));
    s.add("allocations", static_cast<double>(nAllocs));
    s.add("collisions_preserved",
          static_cast<double>(nCollisionsPreserved));
    s.add("collisions_replaced",
          static_cast<double>(nCollisionsReplaced));
    s.add("queries", static_cast<double>(nQueries));
    s.add("field_records", static_cast<double>(nFieldRecords));
    s.add("field_bypasses", static_cast<double>(nFieldBypasses));
    return s;
}

} // namespace garibaldi
