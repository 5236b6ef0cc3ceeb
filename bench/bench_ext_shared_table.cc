/**
 * @file
 * Extension (paper section 2.3): several instances of the same
 * computation unit. Compares two private 32-entry MEMO-TABLEs (one
 * per divider, recurring work duplicated in both) with one shared
 * 64-entry dual-ported table (one unit reuses the other's work).
 */

#include <iostream>

#include "common.hh"
#include "core/shared_table.hh"

using namespace memo;

int
main()
{
    bench::printHeader("Private per-unit tables vs one shared "
                       "multi-ported table (2 dividers)",
                       "paper section 2.3");

    MemoConfig priv_cfg; // 32/4 per unit
    MemoConfig shared_cfg;
    shared_cfg.entries = 64;
    shared_cfg.ways = 4;

    TextTable t({"application", "private hit", "shared hit",
                 "cross-unit hits", "port conflicts"});

    for (const auto &name : check::speedupApps()) {
        const MmKernel &k = mmKernelByName(name);

        MemoTable priv0(Operation::FpDiv, priv_cfg);
        MemoTable priv1(Operation::FpDiv, priv_cfg);
        SharedMemoTable shared(Operation::FpDiv, shared_cfg, 2);

        uint64_t cycle = 0;
        bool any = false;
        for (const auto &ni : standardImages()) {
            Trace trace = traceMmKernel(k, ni.image, check::goldenCrop);
            priv0.flush();
            priv1.flush();
            // Dispatch alternate divisions to alternate units
            // (round-robin issue), as a dual-divider core would.
            unsigned unit = 0;
            for (const auto &inst : trace) {
                if (inst.cls != InstClass::FpDiv)
                    continue;
                any = true;
                cycle++;
                MemoTable &priv = unit == 0 ? priv0 : priv1;
                if (!priv.lookup(inst.a, inst.b))
                    priv.update(inst.a, inst.b, inst.result);
                if (!shared.lookup(unit, cycle, inst.a, inst.b))
                    shared.update(unit, inst.a, inst.b, inst.result);
                unit ^= 1;
            }
        }
        if (!any)
            continue;

        MemoStats pooled = priv0.stats();
        pooled.merge(priv1.stats());
        t.addRow({name, TextTable::ratio(pooled.hitRatio()),
                  TextTable::ratio(shared.stats().hitRatio()),
                  TextTable::count(shared.crossUnitHits()),
                  TextTable::count(shared.portConflicts())});
    }
    t.print(std::cout);

    std::cout << "\nShape to check: the shared table wins — round-"
                 "robin dispatch halves each\nprivate table's view of "
                 "a recurring computation, while the shared table\n"
                 "serves either unit (cross-unit hits) without port "
                 "conflicts at 2 ports.\n";
    return 0;
}
