#include "common/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace garibaldi
{

ArgParser::ArgParser(std::string description_)
    : description(std::move(description_))
{
    addFlag("help", "show this help and exit");
}

void
ArgParser::addInt(const std::string &name, std::int64_t def,
                  const std::string &help)
{
    options.push_back({name, Kind::Int, help, std::to_string(def),
                       std::to_string(def), false, def});
}

void
ArgParser::addDouble(const std::string &name, double def,
                     const std::string &help)
{
    options.push_back({name, Kind::Double, help, std::to_string(def),
                       std::to_string(def)});
}

void
ArgParser::addString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    options.push_back({name, Kind::String, help, def, def});
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    options.push_back({name, Kind::Flag, help, "0", "0"});
}

const ArgParser::Option *
ArgParser::find(const std::string &name, Kind kind) const
{
    for (const auto &o : options) {
        if (o.name == name) {
            if (o.kind != kind)
                panic("option --", name, " accessed with wrong type");
            return &o;
        }
    }
    panic("unknown option --", name);
}

ArgParser::Option *
ArgParser::findMutable(const std::string &name)
{
    for (auto &o : options)
        if (o.name == name)
            return &o;
    return nullptr;
}

void
ArgParser::usage(const char *prog) const
{
    std::printf("%s\n\nusage: %s [options]\n\noptions:\n",
                description.c_str(), prog);
    for (const auto &o : options) {
        std::string lhs = "  --" + o.name;
        if (o.kind != Kind::Flag)
            lhs += " <v>";
        std::printf("%-26s %s", lhs.c_str(), o.help.c_str());
        if (o.kind != Kind::Flag)
            std::printf(" (default: %s)", o.def.c_str());
        std::printf("\n");
    }
}

void
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            std::exit(1);
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        Option *opt = findMutable(name);
        if (!opt) {
            std::fprintf(stderr, "error: unknown option --%s\n",
                         name.c_str());
            std::exit(1);
        }
        opt->set = true;
        if (opt->kind == Kind::Flag) {
            opt->value = "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: --%s requires a value\n",
                             name.c_str());
                std::exit(1);
            }
            value = argv[++i];
        }
        opt->value = value;
        if (opt->kind == Kind::Int) {
            // Strict: the whole string must be an in-range integer
            // (strtoll alone would read "abc" as 0 and "10x" as 10).
            char *end = nullptr;
            errno = 0;
            opt->num = std::strtoll(value.c_str(), &end, 0);
            if (value.empty() || *end != '\0' || errno == ERANGE) {
                std::fprintf(stderr,
                             "error: --%s expects an integer, got '%s'\n",
                             name.c_str(), value.c_str());
                std::exit(1);
            }
        }
    }
    if (getFlag("help")) {
        usage(argv[0]);
        std::exit(0);
    }
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    return find(name, Kind::Int)->num;
}

std::uint64_t
ArgParser::getCount(const std::string &name) const
{
    std::int64_t v = getInt(name);
    if (v < 0)
        fatal("--", name, " must be >= 0 (got ", v, ")");
    return static_cast<std::uint64_t>(v);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::strtod(find(name, Kind::Double)->value.c_str(), nullptr);
}

const std::string &
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::String)->value;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag)->value == "1";
}

bool
ArgParser::wasSet(const std::string &name) const
{
    for (const auto &o : options)
        if (o.name == name)
            return o.set;
    panic("unknown option --", name);
}

} // namespace garibaldi
