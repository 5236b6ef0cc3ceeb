/**
 * @file
 * Extension (paper section 2.3, second proposal): replacing a second
 * fp divider with a MEMO-TABLE issue port. Compares the completion
 * time of each application's instruction stream on one divider, two
 * dividers, and one divider + table (13-cycle dividers; a 32-entry
 * 4-way table costs a fraction of an SRT divider's area).
 */

#include <iostream>

#include "common.hh"
#include "sim/div_issue.hh"

using namespace memo;

int
main()
{
    bench::printHeader("One divider vs two dividers vs divider + "
                       "MEMO-TABLE issue port",
                       "paper section 2.3");

    constexpr unsigned div_latency = 13;
    TextTable t({"application", "1 divider", "2 dividers",
                 "1 div + table", "table hits", "vs 1-div",
                 "of 2-div gain"});

    for (const auto &name : check::speedupApps()) {
        const MmKernel &k = mmKernelByName(name);
        uint64_t one = 0, two = 0, tbl = 0, hits = 0, divs = 0;
        for (const auto &ni : standardImages()) {
            Trace trace = traceMmKernel(k, ni.image, check::goldenCrop);
            one += runDivIssue(trace, DivEngine::OneDivider,
                               div_latency)
                       .totalCycles;
            two += runDivIssue(trace, DivEngine::TwoDividers,
                               div_latency)
                       .totalCycles;
            auto r = runDivIssue(trace, DivEngine::DividerPlusTable,
                                 div_latency);
            tbl += r.totalCycles;
            hits += r.tableHits;
            divs += r.divCount;
        }
        if (divs == 0)
            continue;
        double speedup = static_cast<double>(one) / tbl;
        double two_gain = static_cast<double>(one) / two - 1.0;
        double tbl_gain = speedup - 1.0;
        double captured = two_gain > 1e-9 ? tbl_gain / two_gain : 1.0;
        t.addRow({name, TextTable::count(one), TextTable::count(two),
                  TextTable::count(tbl),
                  TextTable::ratio(static_cast<double>(hits) / divs),
                  TextTable::fixed(speedup, 3),
                  TextTable::fixed(captured, 2)});
    }
    t.print(std::cout);

    std::cout << "\nShape to check: the table-as-second-unit "
                 "configuration recovers a large\nfraction of the "
                 "second divider's benefit ('of 2-div gain') whenever "
                 "the hit\nratio is substantial — at a fraction of an "
                 "SRT divider's area (section 2.4:\na 32-entry table "
                 "is 768 bytes; the Pentium's SRT lookup table alone "
                 "is 1 KB).\n";
    return 0;
}
