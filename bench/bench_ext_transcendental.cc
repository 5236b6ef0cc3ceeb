/**
 * @file
 * Extension (paper section 4, future work): memoizing the sqrt, log,
 * exp and trigonometric units. Hit ratios of 32/4 tables on those
 * units across the Multi-Media kernels, and the speedup from
 * memoizing sqrt alongside mult/div.
 */

#include <iostream>

#include "common.hh"
#include "sim/amdahl.hh"

using namespace memo;

int
main()
{
    bench::printHeader("Memoizing sqrt/log/exp units (future-work "
                       "extension)",
                       "paper section 4");

    MemoConfig cfg;
    TextTable t({"application", "fp sqrt", "fp log", "fp exp"});
    for (const auto &k : mmKernels()) {
        MemoBank bank;
        bank.addTable(Operation::FpSqrt, cfg);
        bank.addTable(Operation::FpLog, cfg);
        bank.addTable(Operation::FpExp, cfg);
        for (const auto &ni : standardImages()) {
            Trace trace = traceMmKernel(k, ni.image, check::goldenCrop);
            bank.table(Operation::FpSqrt)->flush();
            bank.table(Operation::FpLog)->flush();
            bank.table(Operation::FpExp)->flush();
            replayMemo(trace, bank);
        }
        auto ratio = [&](Operation op) {
            const MemoStats &s = bank.table(op)->stats();
            return s.lookups ? s.hitRatio() : -1.0;
        };
        double sq = ratio(Operation::FpSqrt);
        double lg = ratio(Operation::FpLog);
        double ex = ratio(Operation::FpExp);
        if (sq < 0 && lg < 0 && ex < 0)
            continue;
        t.addRow({k.name, TextTable::ratio(sq), TextTable::ratio(lg),
                  TextTable::ratio(ex)});
    }
    t.print(std::cout);

    // Speedup from adding a sqrt table to the mult/div tables on the
    // sqrt-heavy kernels (20-cycle digit-recurrence sqrt unit).
    std::cout << "\nSpeedup of sqrt-heavy kernels when the sqrt unit "
                 "is also memoized\n(3/13 FPU, 15-cycle sqrt):\n\n";
    TextTable s({"application", "mult+div only", "with sqrt table"});
    CpuConfig cpu_cfg;
    cpu_cfg.lat = LatencyConfig::custom(3, 13);
    cpu_cfg.lat[InstClass::FpSqrt] = 15;
    CpuModel cpu(cpu_cfg);
    for (const auto &name : {"vdiff", "vcost", "vsqrt", "vsurf"}) {
        const MmKernel &k = mmKernelByName(name);
        uint64_t base = 0, with_md = 0, with_all = 0;
        MemoBank md = MemoBank::standard(cfg);
        MemoBank all = MemoBank::standard(cfg);
        all.addTable(Operation::FpSqrt, cfg);
        for (const auto &ni : standardImages()) {
            Trace trace = traceMmKernel(k, ni.image, check::goldenCrop);
            base += cpu.run(trace).totalCycles;
            md.reset();
            all.reset();
            with_md += cpu.run(trace, &md).totalCycles;
            with_all += cpu.run(trace, &all).totalCycles;
        }
        s.addRow({name,
                  TextTable::fixed(static_cast<double>(base) / with_md,
                                   2),
                  TextTable::fixed(static_cast<double>(base) / with_all,
                                   2)});
    }
    s.print(std::cout);

    std::cout << "\nShape to check: sqrt operand streams in image code "
                 "reuse like divisions do,\nso the long-latency sqrt "
                 "unit benefits at least as much — the paper's "
                 "stated\nmotivation for extending the technique.\n";
    return 0;
}
