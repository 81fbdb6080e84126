// Fixture: deterministic idioms the lint must NOT flag.
//  - unordered containers used for lookup only (no iteration)
//  - "rand" / "time" as substrings of longer identifiers
//  - entropy keywords inside comments and string literals
//  - a justified allow() for a real finding
//  - integral counters
//  - const globals, a mutable lambda, and mutable members that are a
//    SimMutex or SIM_GUARDED_BY one
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_safety.hh"

// rand() and std::chrono::steady_clock in a comment are fine.
static const char *kDoc =
    "call rand() or time(NULL) -- only mentioned in this string";

std::uint64_t
countOperands(const std::vector<std::uint64_t> &ops)
{
    std::unordered_map<std::uint64_t, std::uint64_t> lastAccess;
    std::uint64_t operandCount = 0;
    for (std::uint64_t op : ops) {
        lastAccess[op] += 1;   // lookup/update only; never iterated
        ++operandCount;
    }
    std::uint64_t timestamp = lastAccess.size();  // not time()
    return operandCount + timestamp + (kDoc ? 1u : 0u);
}

double
justifiedSum(const double *xs, int n)
{
    double byteCount = 0;
    for (int i = 0; i < n; ++i)
        // determinism-lint: allow(float-counter) fixed-order sum in a fixture exercising the waiver path
        byteCount += xs[i];
    return byteCount;
}

const std::uint64_t kSeedBase = 7; // immutable globals are fine
constexpr std::uint64_t kStride = 3;

std::uint64_t
sumTwice(std::uint64_t x)
{
    auto add = [acc = kSeedBase](std::uint64_t v) mutable {
        acc += v * kStride;
        return acc;
    };
    add(x);
    return add(x);
}

class GuardedMemo
{
  public:
    std::uint64_t
    get(std::uint64_t key) const
    {
        garibaldi::SimLock lk(mu);
        return memo[key] += 1;
    }

  private:
    mutable garibaldi::SimMutex mu;
    mutable std::map<std::uint64_t, std::uint64_t> memo SIM_GUARDED_BY(mu);
};
