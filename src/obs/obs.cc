#include "obs/obs.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>

#include "common/cli.hh"
#include "common/logging.hh"

namespace garibaldi
{

void
ObsConfig::validate() const
{
    if (!traceOut.empty() && !tracingOn())
        fatal("--trace-out needs --trace-sample N >= 1 (1 = trace "
              "every transaction); tracing is off without a sampling "
              "rate");
    if (tracingOn() && traceBufRecords == 0)
        fatal("--trace-sample needs a non-zero trace ring capacity "
              "(--trace-buf)");
    if (!telemetryOut.empty() && !telemetryOn())
        fatal("--telemetry-out needs --telemetry-window N >= 1 "
              "(cycles per window); telemetry is off without a window");
    if (telemetryOn() && telemetryOut.empty())
        fatal("--telemetry-window needs --telemetry-out FILE (the "
              "JSONL sink the windows are written to)");
}

ObsSubsystem::ObsSubsystem(const ObsConfig &cfg_,
                           std::uint32_t num_cores)
    : cfg(cfg_)
{
    cfg.validate();
    if (!cfg.anyOn())
        fatal("ObsSubsystem built with every knob off; construct it "
              "only when ObsConfig::anyOn()");
    if (cfg.tracingOn())
        tracer_ = std::make_unique<Tracer>(cfg, num_cores);
    if (cfg.telemetryOn())
        telemetry_ = std::make_unique<TelemetrySink>(cfg, num_cores);
}

void
ObsSubsystem::startMeasurement()
{
    if (tracer_)
        tracer_->setMeasuring(true);
}

namespace
{

void
writeFile(const std::string &path, const std::string &content)
{
    // Create missing parent directories: obs artifacts are routinely
    // pointed into per-run scratch directories that don't exist yet,
    // and losing a finished simulation to a missing mkdir is rude.
    std::size_t slash = path.rfind('/');
    if (slash != std::string::npos && slash > 0)
        ensureDirectories(path.substr(0, slash));
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open obs output '", path, "': ",
              std::strerror(errno));
    if (!content.empty() &&
        std::fwrite(content.data(), 1, content.size(), f) !=
            content.size()) {
        std::fclose(f);
        fatal("short write to obs output '", path, "'");
    }
    std::fclose(f);
}

} // namespace

void
ObsSubsystem::writeOutputs() const
{
    if (tracer_ && !cfg.traceOut.empty()) {
        writeFile(cfg.traceOut, tracer_->chromeJson());
        writeFile(cfg.traceOut + ".csv", tracer_->csv());
    }
    if (telemetry_ && !cfg.telemetryOut.empty())
        writeFile(cfg.telemetryOut, telemetry_->jsonl());
}

StatSet
ObsSubsystem::stats() const
{
    StatSet s;
    if (tracer_)
        s.addAll("obs.", tracer_->stats());
    if (telemetry_) {
        s.add("obs.telemetry.windows",
              static_cast<double>(telemetry_->windows()));
    }
    return s;
}

void
ensureDirectories(const std::string &dir)
{
    if (dir.empty())
        return;
    std::string partial;
    std::size_t pos = 0;
    while (pos <= dir.size()) {
        std::size_t next = dir.find('/', pos);
        if (next == std::string::npos)
            next = dir.size();
        partial = dir.substr(0, next);
        pos = next + 1;
        if (partial.empty() || partial == ".")
            continue;
        if (::mkdir(partial.c_str(), 0777) == 0 || errno == EEXIST)
            continue;
        fatal("cannot create directory '", partial, "': ",
              std::strerror(errno));
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fatal("'", dir, "' exists but is not a directory");
}

void
addObsArgs(ArgParser &args)
{
    args.addInt("trace-sample", 0,
                "trace 1 in N transactions per core (0 = off)");
    args.addString("trace-out", "",
                   "Chrome trace-event JSON path (+ sibling .csv)");
    args.addInt("trace-buf", 4096,
                "per-core trace ring capacity in records");
    args.addInt("telemetry-window", 0,
                "telemetry window length in cycles (0 = off)");
    args.addString("telemetry-out", "",
                   "telemetry JSONL path (one record per window)");
}

ObsConfig
obsSweepTemplateFromArgs(const ArgParser &args)
{
    // Explicitly passed zeros are rejected loudly instead of silently
    // meaning "off": a user typing "--trace-sample 0" wanted *some*
    // tracing behavior and should be told the flag spelling for off is
    // its absence.
    std::int64_t sample = args.getInt("trace-sample");
    if (sample < 0)
        fatal("--trace-sample must be >= 1 (got ", sample, ")");
    if (args.wasSet("trace-sample") && sample == 0)
        fatal("--trace-sample 0 disables nothing cleanly; omit the "
              "flag to turn tracing off or pass N >= 1");
    std::int64_t buf = args.getInt("trace-buf");
    if (buf <= 0)
        fatal("--trace-buf must be >= 1 (got ", buf, ")");
    std::int64_t window = args.getInt("telemetry-window");
    if (window < 0)
        fatal("--telemetry-window must be >= 1 (got ", window, ")");
    if (args.wasSet("telemetry-window") && window == 0)
        fatal("--telemetry-window 0 disables nothing cleanly; omit "
              "the flag to turn telemetry off or pass N >= 1");

    ObsConfig cfg;
    cfg.traceSample = static_cast<std::uint64_t>(sample);
    cfg.traceBufRecords = static_cast<std::uint64_t>(buf);
    cfg.telemetryWindow = static_cast<Cycle>(window);
    return cfg;
}

ObsConfig
obsConfigFromArgs(const ArgParser &args)
{
    ObsConfig cfg = obsSweepTemplateFromArgs(args);
    cfg.traceOut = args.getString("trace-out");
    cfg.telemetryOut = args.getString("telemetry-out");
    cfg.validate();
    return cfg;
}

} // namespace garibaldi
