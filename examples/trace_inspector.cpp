/**
 * @file
 * Trace inspector: dump and profile the synthetic workload streams —
 * the equivalent of eyeballing a SIFT trace before feeding it to the
 * simulator.  Prints a window of decoded MicroOps plus footprint and
 * mix statistics for any catalog workload.
 *
 * Usage: trace_inspector --workload kafka [--ops N] [--window N]
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/cli.hh"
#include "common/table_printer.hh"
#include "workloads/catalog.hh"
#include "workloads/synth_workload.hh"

using namespace garibaldi;

int
main(int argc, char **argv)
{
    ArgParser args("Inspect a synthetic workload's MicroOp stream");
    args.addString("workload", "tpcc", "catalog workload name");
    args.addInt("ops", 200000, "instructions to profile");
    args.addInt("window", 24, "decoded instructions to print");
    args.addInt("seed", 42, "instance seed");
    args.parse(argc, argv);

    WorkloadParams params = workloadByName(args.getString("workload"));
    SynthWorkload w(params, args.getCount("seed"));

    std::printf("workload: %s (%s)\n", params.name.c_str(),
                params.isServer ? "server" : "spec");
    std::printf("static image: %u functions, %llu instruction lines "
                "(%.1f KB code)\n\n",
                w.layout().numFunctions(),
                static_cast<unsigned long long>(w.layout().codeLines()),
                w.layout().codeBytes() / 1024.0);

    // ---- Decoded window ---------------------------------------------
    std::printf("first %lld decoded micro-ops:\n",
                static_cast<long long>(args.getInt("window")));
    for (int i = 0; i < args.getInt("window"); ++i) {
        MicroOp op = w.next();
        const char *kind =
            op.isBranch ? (op.isIndirect ? "CALL*" : "BR")
                        : (op.mem == MicroOp::MemKind::Load    ? "LD"
                           : op.mem == MicroOp::MemKind::Store ? "ST"
                                                               : "OP");
        std::printf("  %012llx  %-5s",
                    static_cast<unsigned long long>(op.pc), kind);
        if (op.mem != MicroOp::MemKind::None)
            std::printf("  [%012llx]",
                        static_cast<unsigned long long>(op.vaddr));
        if (op.isBranch)
            std::printf("  %s -> %012llx",
                        op.branchTaken ? "taken" : "fallthru",
                        static_cast<unsigned long long>(
                            op.branchTarget));
        std::printf("\n");
    }

    // ---- Profile -----------------------------------------------------
    std::uint64_t total = args.getCount("ops");
    std::set<Addr> ilines, dlines;
    std::map<Addr, std::uint64_t> iline_counts, dline_counts;
    std::uint64_t loads = 0, stores = 0, branches = 0, taken = 0,
                  indirect = 0;
    for (std::uint64_t i = 0; i < total; ++i) {
        MicroOp op = w.next();
        Addr il = lineAlign(op.pc);
        ilines.insert(il);
        ++iline_counts[il];
        if (op.mem == MicroOp::MemKind::Load)
            ++loads;
        if (op.mem == MicroOp::MemKind::Store)
            ++stores;
        if (op.mem != MicroOp::MemKind::None) {
            Addr dl = lineAlign(op.vaddr);
            dlines.insert(dl);
            ++dline_counts[dl];
        }
        if (op.isBranch) {
            ++branches;
            taken += op.branchTaken;
            indirect += op.isIndirect;
        }
    }

    auto top_share = [](const std::map<Addr, std::uint64_t> &counts,
                        std::uint64_t events, std::size_t top_n) {
        std::vector<std::uint64_t> v;
        for (const auto &[a, c] : counts)
            v.push_back(c);
        std::sort(v.rbegin(), v.rend());
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < std::min(top_n, v.size()); ++i)
            sum += v[i];
        return events ? static_cast<double>(sum) / events : 0.0;
    };

    TablePrinter t({"metric", "value"});
    t.addRow({"instructions", std::to_string(total)});
    t.addRow({"loads / stores",
              std::to_string(loads) + " / " + std::to_string(stores)});
    t.addRow({"branches (taken)",
              std::to_string(branches) + " (" +
                  TablePrinter::pct(
                      branches ? static_cast<double>(taken) / branches
                               : 0,
                      1) +
                  ")"});
    t.addRow({"indirect calls", std::to_string(indirect)});
    t.addRow({"distinct instr lines", std::to_string(ilines.size())});
    t.addRow({"distinct data lines", std::to_string(dlines.size())});
    t.addRow({"accesses per instr line",
              TablePrinter::num(iline_counts.empty()
                                    ? 0.0
                                    : static_cast<double>(total) /
                                          iline_counts.size(),
                                2)});
    t.addRow({"accesses per data line",
              TablePrinter::num(dline_counts.empty()
                                    ? 0.0
                                    : static_cast<double>(loads +
                                                          stores) /
                                          dline_counts.size(),
                                2)});
    t.addRow({"top-64 data lines' access share",
              TablePrinter::pct(
                  top_share(dline_counts, loads + stores, 64), 1)});
    t.addRow({"top-64 instr lines' fetch share",
              TablePrinter::pct(top_share(iline_counts, total, 64),
                                1)});
    std::printf("\nprofile over %llu instructions:\n%s",
                static_cast<unsigned long long>(total),
                t.toText().c_str());
    std::printf("\nThe server profile is many-to-few (paper Fig. 4(a)):"
                " many instruction lines funnel into few hot data "
                "lines.\n");
    return 0;
}
