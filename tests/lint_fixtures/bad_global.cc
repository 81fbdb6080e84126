// Fixture: mutable variables at file and namespace scope, no `static`
// keyword needed to be a hidden global.
// Expected finding: static-mutable (twice), while the const global and
// the function must NOT be flagged.
#include <cstdint>

std::uint64_t globalTally = 0; // finding: file scope

namespace fixture
{

std::uint64_t nsTally{0}; // finding: namespace scope, brace-initialized

const std::uint64_t kLimit = 64; // clean: immutable

std::uint64_t
bump()
{
    ++globalTally;
    ++nsTally;
    return kLimit;
}

} // namespace fixture
