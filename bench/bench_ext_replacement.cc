/**
 * @file
 * Extension ablation: replacement policy (LRU / FIFO / random) of the
 * 32/4 MEMO-TABLE on the five sweep kernels.
 */

#include <iostream>

#include "common.hh"
#include "exec/parallel.hh"

using namespace memo;

int
main()
{
    bench::printHeader("Replacement-policy ablation (32/4 tables)",
                       "design-choice ablation");

    TextTable t({"application", "fd LRU", "fd FIFO", "fd rand",
                 "fm LRU", "fm FIFO", "fm rand"});

    const auto &names = sweepKernelNames();
    auto all = exec::sweep(names, [](const std::string &name) {
        std::vector<MemoConfig> cfgs(3);
        cfgs[0].replacement = Replacement::Lru;
        cfgs[1].replacement = Replacement::Fifo;
        cfgs[2].replacement = Replacement::Random;
        return measureMmKernelConfigs(mmKernelByName(name), cfgs,
                                      check::goldenCrop);
    });

    for (size_t ki = 0; ki < names.size(); ki++) {
        const auto &hits = all[ki];
        double fd[3], fm[3];
        for (int i = 0; i < 3; i++) {
            fd[i] = hits[i].fpDiv;
            fm[i] = hits[i].fpMul;
        }
        t.addRow({names[ki], TextTable::ratio(fd[0]),
                  TextTable::ratio(fd[1]), TextTable::ratio(fd[2]),
                  TextTable::ratio(fm[0]), TextTable::ratio(fm[1]),
                  TextTable::ratio(fm[2])});
    }
    t.print(std::cout);

    std::cout << "\nShape to check: LRU leads, FIFO is close, random "
                 "trails slightly — the gap\nis small because the "
                 "working sets either fit or badly overflow 32 "
                 "entries.\n";
    return 0;
}
