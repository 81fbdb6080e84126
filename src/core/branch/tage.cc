#include "core/branch/tage.hh"

#include "common/intmath.hh"
#include "common/stat_kind.hh"

namespace garibaldi
{

constexpr std::array<unsigned, TagePredictor::kNumTables>
    TagePredictor::kHistLen;

TagePredictor::TagePredictor()
    : base(kBaseSize, SatCounter(2, 1)), btb(kBtbSize)
{
    for (auto &t : tables)
        t.resize(kTableSize);
}

std::size_t
TagePredictor::baseIndex(Addr pc) const
{
    return static_cast<std::size_t>(pc >> 2) & (kBaseSize - 1);
}

std::uint64_t
TagePredictor::foldedHistory(unsigned bits) const
{
    std::uint64_t h = bits >= 64 ? history
                                 : history & ((std::uint64_t{1} << bits)
                                              - 1);
    // Fold to 16 bits.
    std::uint64_t folded = 0;
    while (h) {
        folded ^= h & 0xffff;
        h >>= 16;
    }
    return folded;
}

std::size_t
TagePredictor::taggedIndex(Addr pc, unsigned table) const
{
    std::uint64_t h = foldedHistory(kHistLen[table]);
    return static_cast<std::size_t>(
               mix64((pc >> 2) ^ (h << 1) ^ table)) & (kTableSize - 1);
}

std::uint16_t
TagePredictor::taggedTag(Addr pc, unsigned table) const
{
    std::uint64_t h = foldedHistory(kHistLen[table]);
    return static_cast<std::uint16_t>(
        (mix64((pc >> 2) * 0x9e3779b1 ^ h ^ (table << 8)) & 0xff) | 0x100);
}

int
TagePredictor::findProvider(Addr pc, std::size_t idx[kNumTables],
                            std::uint16_t tag[kNumTables]) const
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        idx[t] = taggedIndex(pc, t);
        tag[t] = taggedTag(pc, t);
    }
    for (int t = kNumTables - 1; t >= 0; --t) {
        const TaggedEntry &e = tables[t][idx[t]];
        if (e.valid && e.tag == tag[t])
            return t;
    }
    return -1;
}

bool
TagePredictor::predict(Addr pc)
{
    ++nLookups;
    std::size_t idx[kNumTables];
    std::uint16_t tag[kNumTables];
    int provider = findProvider(pc, idx, tag);
    if (provider >= 0)
        return tables[provider][idx[provider]].ctr.isSet();
    return base[baseIndex(pc)].isSet();
}

void
TagePredictor::update(Addr pc, bool taken)
{
    std::size_t idx[kNumTables];
    std::uint16_t tag[kNumTables];
    int provider = findProvider(pc, idx, tag);

    bool predicted;
    if (provider >= 0) {
        TaggedEntry &e = tables[provider][idx[provider]];
        predicted = e.ctr.isSet();
        if (predicted == taken)
            e.useful.increment();
        else
            e.useful.decrement();
        if (taken)
            e.ctr.increment();
        else
            e.ctr.decrement();
    } else {
        SatCounter &c = base[baseIndex(pc)];
        predicted = c.isSet();
        if (taken)
            c.increment();
        else
            c.decrement();
    }

    if (predicted == taken) {
        ++nCorrect;
    } else if (provider < static_cast<int>(kNumTables) - 1) {
        // Allocate in a longer-history table with a non-useful entry.
        for (unsigned t = provider + 1; t < kNumTables; ++t) {
            TaggedEntry &e = tables[t][idx[t]];
            if (!e.valid || e.useful.value() == 0) {
                e.valid = true;
                e.tag = tag[t];
                e.ctr = SatCounter(3, taken ? 4 : 3);
                e.useful = SatCounter(2, 0);
                ++nAllocs;
                break;
            }
            e.useful.decrement();
        }
    }

    history = (history << 1) | (taken ? 1 : 0);
}

Addr
TagePredictor::predictIndirect(Addr pc)
{
    ++nIndirect;
    const BtbEntry &e =
        btb[static_cast<std::size_t>(mix64(pc ^ (history & 0xf))) &
            (kBtbSize - 1)];
    if (e.valid && e.pc == pc)
        return e.target;
    return 0;
}

void
TagePredictor::updateIndirect(Addr pc, Addr target)
{
    BtbEntry &e =
        btb[static_cast<std::size_t>(mix64(pc ^ (history & 0xf))) &
            (kBtbSize - 1)];
    if (e.valid && e.pc == pc && e.target == target)
        ++nIndirectCorrect;
    e.pc = pc;
    e.target = target;
    e.valid = true;
    history = (history << 1) | 1;
}

StatSet
TagePredictor::stats() const
{
    StatSet s;
    s.add("lookups", static_cast<double>(nLookups));
    s.add("correct", static_cast<double>(nCorrect));
    s.add("accuracy",
          nLookups ? static_cast<double>(nCorrect) / nLookups : 0.0,
          statkind::rate("correct", "lookups"));
    s.add("allocations", static_cast<double>(nAllocs));
    s.add("indirect_lookups", static_cast<double>(nIndirect));
    s.add("indirect_correct", static_cast<double>(nIndirectCorrect));
    return s;
}

} // namespace garibaldi
