/**
 * @file
 * Shared helpers for the extension (bench_ext_*) harnesses.
 *
 * The paper's own tables and figures are measured in src/check
 * (golden.hh and measure.hh) and rendered by memo-report; the
 * extension harnesses print ablations the report does not measure
 * yet. They measure at check::goldenCrop and over check::speedupApps()
 * so their numbers line up with the report's.
 */

#ifndef MEMO_BENCH_COMMON_HH
#define MEMO_BENCH_COMMON_HH

#include <string>

#include "analysis/experiment.hh"
#include "analysis/table.hh"
#include "check/golden.hh"
#include "check/measure.hh"
#include "img/generate.hh"
#include "sim/cpu.hh"
#include "workloads/workload.hh"

namespace memo::bench
{

/** Print a top-level header for a bench binary. */
void printHeader(const std::string &title, const std::string &paper_ref);

} // namespace memo::bench

#endif // MEMO_BENCH_COMMON_HH
