/**
 * @file
 * Server-consolidation scenario: the situation the paper's intro
 * motivates — many latency-sensitive server services packed onto one
 * many-core socket, contending for a 12-way shared LLC.
 *
 * A heterogeneous mix (database OLTP + JVM services + an RTL-simulation
 * batch job) runs under four LLC managements; the example reports
 * weighted speedup, per-service IPC, ifetch stalls and energy — the
 * numbers an SRE capacity model would consume.
 *
 * Usage: server_consolidation [--cores N] [--instr N] [--warmup N]
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/table_printer.hh"
#include "sim/experiment.hh"
#include "workloads/catalog.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Server consolidation: a heterogeneous service mix "
                   "under four LLC managements");
    args.addInt("cores", 8, "cores on the socket");
    args.addInt("warmup", 100000, "warmup instructions per core");
    args.addInt("instr", 250000, "measured instructions per core");
    args.parse(argc, argv);

    std::uint32_t cores =
        static_cast<std::uint32_t>(args.getCount("cores"));
    SystemConfig base = defaultConfig(cores);
    ExperimentContext ctx(base, args.getCount("warmup"),
                          args.getCount("instr"));

    // One rack's worth of services, round-robined over the cores.
    std::vector<std::string> services = {"tpcc",      "twitter",
                                         "tomcat",    "finagle-http",
                                         "smallbank", "cassandra",
                                         "verilator", "voter"};
    std::vector<std::string> slots;
    for (std::uint32_t c = 0; c < cores; ++c)
        slots.push_back(services[c % services.size()]);
    Mix mix = explicitMix("consolidated-rack", std::move(slots));

    std::printf("socket: %s\nmix:", base.summary().c_str());
    for (const auto &s : mix.slots)
        std::printf(" %s", s.c_str());
    std::printf("\n\n");

    struct Config
    {
        const char *label;
        PolicyKind policy;
        bool garibaldi;
    };
    const std::vector<Config> configs = {
        {"LRU", PolicyKind::LRU, false},
        {"DRRIP", PolicyKind::DRRIP, false},
        {"Mockingjay", PolicyKind::Mockingjay, false},
        {"Mockingjay+Garibaldi", PolicyKind::Mockingjay, true},
    };

    TablePrinter t({"management", "weighted_speedup", "vs_lru",
                    "ifetch_stall_Mcyc", "energy_mJ",
                    "llc_instr_missrate"});
    double lru_metric = 0;
    std::vector<SimResult> results;
    for (const Config &cfg : configs) {
        SimResult r = ctx.runPolicy(cfg.policy, cfg.garibaldi, mix);
        double metric = ctx.metric(r, mix);
        if (cfg.policy == PolicyKind::LRU && !cfg.garibaldi)
            lru_metric = metric;
        EnergyBreakdown e = computeEnergy(
            r, configWithPolicy(base, cfg.policy, cfg.garibaldi));
        double instr_mr = r.mem.get("llc.instr_misses") /
                          std::max(1.0,
                                   r.mem.get("llc.instr_accesses"));
        t.addRow({cfg.label, TablePrinter::num(metric, 3),
                  TablePrinter::pct(metric / lru_metric - 1, 1),
                  TablePrinter::num(r.ifetchStallCycles() / 1e6, 2),
                  TablePrinter::num(e.total() * 1e3, 3),
                  TablePrinter::pct(instr_mr, 1)});
        results.push_back(std::move(r));
    }
    std::printf("%s\n", t.toText().c_str());

    // Per-service view under the best configuration.
    const SimResult &best = results.back();
    const SimResult &lru = results.front();
    TablePrinter svc({"core", "service", "ipc_lru", "ipc_garibaldi",
                      "speedup"});
    for (std::size_t c = 0; c < best.cores.size(); ++c) {
        svc.addRow({std::to_string(c), mix.slots[c],
                    TablePrinter::num(lru.cores[c].ipc, 4),
                    TablePrinter::num(best.cores[c].ipc, 4),
                    TablePrinter::pct(best.cores[c].ipc /
                                          lru.cores[c].ipc - 1,
                                      1)});
    }
    std::printf("per-service impact (LRU -> Mockingjay+Garibaldi):\n%s",
                svc.toText().c_str());
    return 0;
}
