#include "common/stats.hh"

#include <cstring>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace garibaldi
{

namespace
{

bool
sameSemantics(const StatSemantics &a, const StatSemantics &b)
{
    if (a.kind != b.kind)
        return false;
    return a.kind != StatKind::Rate ||
           (std::strcmp(a.num, b.num) == 0 &&
            std::strcmp(a.den, b.den) == 0);
}

} // namespace

void
StatSet::put(const std::string &name, double value,
             const StatSemantics &sem, std::size_t prefix_len)
{
    auto it = index.find(name);
    if (it != index.end()) {
        const StatSemantics &had = meta[it->second].sem;
        if (!sameSemantics(had, sem))
            fatal("StatSet: stat '", name, "' re-added as ",
                  statKindName(sem.kind), ", was ",
                  statKindName(had.kind), "; one name, one kind");
        ordered[it->second].second = value;
        return;
    }
    index.emplace(name, ordered.size());
    ordered.emplace_back(name, value);
    meta.push_back(Meta{sem, prefix_len});
}

void
StatSet::add(const std::string &name, double value,
             const StatSemantics &sem)
{
    put(name, value, sem, 0);
}

void
StatSet::addAll(const std::string &prefix, const StatSet &other)
{
    for (std::size_t i = 0; i < other.ordered.size(); ++i)
        put(prefix + other.ordered[i].first, other.ordered[i].second,
            other.meta[i].sem, prefix.size() + other.meta[i].prefixLen);
}

double
StatSet::get(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        fatal("StatSet: unknown stat '", name, "'");
    return ordered[it->second].second;
}

bool
StatSet::has(const std::string &name) const
{
    return index.count(name) != 0;
}

StatKind
StatSet::kind(const std::string &name) const
{
    auto it = index.find(name);
    if (it == index.end())
        fatal("StatSet: unknown stat '", name, "'");
    return meta[it->second].sem.kind;
}

std::string
StatSet::toString() const
{
    std::size_t w = 0;
    for (const auto &[name, value] : ordered)
        w = std::max(w, name.size());
    std::ostringstream os;
    for (const auto &[name, value] : ordered) {
        os << std::left << std::setw(static_cast<int>(w) + 2) << name
           << std::setprecision(6) << value << "\n";
    }
    return os.str();
}

} // namespace garibaldi
