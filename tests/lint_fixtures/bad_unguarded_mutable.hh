// Fixture: a mutable member with no SIM_GUARDED_BY capability, bumped
// through a const method that concurrent readers may call at once.
// Expected finding: mutable-unguarded.
#ifndef FIXTURE_BAD_UNGUARDED_MUTABLE_HH
#define FIXTURE_BAD_UNGUARDED_MUTABLE_HH

#include <cstdint>

class FixtureLookupCounter
{
  public:
    std::uint64_t lookups() const { return ++nLookups; }

  private:
    mutable std::uint64_t nLookups = 0; // finding: no lock
};

#endif
