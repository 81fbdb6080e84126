/**
 * @file
 * Quickstart: build the scaled Table 1 machine, run one server workload
 * mix under Mockingjay with and without Garibaldi, and print IPC, CPI
 * stacks and the key Garibaldi counters.
 *
 * Usage: quickstart [--cores N] [--instr N] [--warmup N]
 *                   [--workload NAME]
 *                   [--trace-sample N] [--trace-out FILE]
 *                   [--telemetry-window N] [--telemetry-out FILE]
 *
 * The observability knobs apply to the Mockingjay+Garibaldi run (the
 * one being studied); the LRU and plain-Mockingjay baselines always
 * run untraced.
 */

#include <cstdio>

#include "common/audit.hh"
#include "common/cli.hh"
#include "common/table_printer.hh"
#include "obs/obs.hh"
#include "sim/experiment.hh"
#include "workloads/catalog.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Garibaldi quickstart: one mix, Mockingjay vs "
                   "Mockingjay+Garibaldi");
    args.addInt("cores", 8, "number of cores");
    args.addInt("warmup", 50000, "warmup instructions per core");
    args.addInt("instr", 250000, "measured instructions per core");
    args.addString("workload", "verilator", "homogeneous workload name");
    addObsArgs(args);
    audit::addAuditArg(args);
    args.parse(argc, argv);
    ObsConfig obs = obsConfigFromArgs(args);
    audit::applyAuditArg(args);

    std::uint32_t cores = static_cast<std::uint32_t>(
        args.getCount("cores"));
    SystemConfig base = defaultConfig(cores);
    ExperimentContext ctx(base, args.getCount("warmup"),
                          args.getCount("instr"));

    Mix mix = homogeneousMix(args.getString("workload"), cores);
    std::printf("machine: %s\nworkload: %s x%u\n\n",
                base.summary().c_str(), mix.name.c_str(), cores);

    SimResult lru = ctx.runPolicy(PolicyKind::LRU, false, mix);
    SimResult mj = ctx.runPolicy(PolicyKind::Mockingjay, false, mix);
    SystemConfig mjg_cfg =
        configWithPolicy(base, PolicyKind::Mockingjay, true);
    mjg_cfg.obs = obs;
    SimResult mjg = ctx.run(mjg_cfg, mix);

    auto report = [](const char *label, const SimResult &r) {
        std::printf("%-24s hmean IPC %.4f  ifetch stalls %llu\n", label,
                    r.ipcHarmonicMean(),
                    static_cast<unsigned long long>(
                        r.ifetchStallCycles()));
    };
    report("LRU", lru);
    report("Mockingjay", mj);
    report("Mockingjay+Garibaldi", mjg);

    std::printf("\nspeedup over LRU: Mockingjay %+.2f%%, +Garibaldi "
                "%+.2f%%\n\n",
                (mj.ipcHarmonicMean() / lru.ipcHarmonicMean() - 1) * 100,
                (mjg.ipcHarmonicMean() / lru.ipcHarmonicMean() - 1) *
                    100);

    // CPI stack of the Garibaldi run.
    TablePrinter t({"component", "LRU", "Mockingjay", "MJ+Garibaldi"});
    CpiStack s_lru = lru.totalCpi();
    CpiStack s_mj = mj.totalCpi();
    CpiStack s_mjg = mjg.totalCpi();
    std::uint64_t instrs = 0;
    for (const auto &c : lru.cores)
        instrs += c.instructions;
    for (std::size_t i = 0; i < kNumCpiComponents; ++i) {
        auto comp = static_cast<CpiComponent>(i);
        t.addRow({cpiComponentName(comp),
                  TablePrinter::num(
                      static_cast<double>(s_lru.of(comp)) / instrs, 4),
                  TablePrinter::num(
                      static_cast<double>(s_mj.of(comp)) / instrs, 4),
                  TablePrinter::num(
                      static_cast<double>(s_mjg.of(comp)) / instrs, 4)});
    }
    std::printf("per-instruction CPI stack:\n%s\n", t.toText().c_str());

    std::printf("garibaldi counters:\n%s\n",
                mjg.garibaldi.toString().c_str());
    std::printf("llc: accesses %.0f  instr share %.1f%%  hit rate "
                "%.1f%%\n",
                mjg.mem.get("llc.accesses"),
                100.0 * mjg.mem.get("llc.instr_accesses") /
                    mjg.mem.get("llc.accesses"),
                100.0 * mjg.mem.get("llc.hits") /
                    mjg.mem.get("llc.accesses"));

    // Only printed when an obs knob is on, so the default run's output
    // stays byte-identical to pre-observability builds.
    if (obs.anyOn()) {
        std::printf("\nobservability (MJ+Garibaldi run):\n%s",
                    mjg.obs.toString().c_str());
        if (!obs.traceOut.empty())
            std::printf("trace written to %s (+ .csv)\n",
                        obs.traceOut.c_str());
        if (!obs.telemetryOut.empty())
            std::printf("telemetry written to %s\n",
                        obs.telemetryOut.c_str());
    }
    return 0;
}
