// Fixture: a non-const static data member, one counter shared by every
// instance (and every sweep worker).
// Expected finding: static-mutable, while the static constant and the
// static member function must NOT be flagged.
#ifndef FIXTURE_BAD_CLASS_STATIC_HH
#define FIXTURE_BAD_CLASS_STATIC_HH

#include <cstdint>

class FixtureTicketDispenser
{
  public:
    static std::uint64_t next() { return kStart + issued++; } // clean

  private:
    static constexpr std::uint64_t kStart = 1; // clean: constexpr
    static std::uint64_t issued;               // finding
};

#endif
