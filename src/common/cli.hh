/**
 * @file
 * Tiny command-line parser shared by benches and examples.  Supports
 * "--name value", "--name=value" and boolean "--flag" forms plus an
 * auto-generated --help.
 */

#ifndef GARIBALDI_COMMON_CLI_HH
#define GARIBALDI_COMMON_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

namespace garibaldi
{

/** Declarative command-line option parser. */
class ArgParser
{
  public:
    /** @param description one-line program description for --help. */
    explicit ArgParser(std::string description);

    /** Register an integer option with a default. */
    void addInt(const std::string &name, std::int64_t def,
                const std::string &help);

    /** Register a floating-point option with a default. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);

    /** Register a string option with a default. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register a boolean flag (default false). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv.  On --help prints usage and exits 0; on malformed
     * input (including an integer option whose value is not entirely
     * an in-range integer) prints an error and exits 1.
     */
    void parse(int argc, const char *const *argv);

    std::int64_t getInt(const std::string &name) const;
    /** An integer option that counts something: fatal() if negative. */
    std::uint64_t getCount(const std::string &name) const;
    double getDouble(const std::string &name) const;
    const std::string &getString(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /**
     * True when the user passed @p name explicitly on the command line
     * (any kind), as opposed to the option sitting at its default.
     * Lets validation distinguish "--trace-sample 0" (an error worth
     * rejecting loudly) from the knob simply being off.
     */
    bool wasSet(const std::string &name) const;

  private:
    enum class Kind { Int, Double, String, Flag };

    struct Option
    {
        std::string name;
        Kind kind;
        std::string help;
        std::string value; // textual; Double parsed on get
        std::string def;
        bool set = false;  // appeared on the command line
        std::int64_t num = 0; // Int: value, parsed strictly by parse()
    };

    const Option *find(const std::string &name, Kind kind) const;
    Option *findMutable(const std::string &name);
    void usage(const char *prog) const;

    std::string description;
    std::vector<Option> options;
};

} // namespace garibaldi

#endif // GARIBALDI_COMMON_CLI_HH
