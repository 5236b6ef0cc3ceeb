/**
 * @file
 * Shared measurement entry points for the speedup/entropy experiments.
 *
 * The golden layer (golden.hh) covers the hit-ratio tables and the
 * geometry sweeps; this file covers the remaining EXPERIMENTS.md
 * content — the Multi-Media hit-ratio suite (Table 7), the Amdahl
 * speedup tables (Tables 11-13) and the entropy regressions
 * (Table 8 / Figure 2). memo-report renders these into EXPERIMENTS.md
 * and memo-plots writes the Figure 2 points as gnuplot data, so the
 * report and the plots are two views of one computation.
 *
 * Everything here is deterministic for the same reasons the goldens
 * are: traces come from the process-wide cache, exec::sweep results
 * are index-aligned regardless of thread count, and all aggregation
 * is per-item arithmetic over exact trace replays.
 */

#ifndef MEMO_CHECK_MEASURE_HH
#define MEMO_CHECK_MEASURE_HH

#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/lmfit.hh"
#include "sim/latency.hh"
#include "workloads/workload.hh"

namespace memo::check
{

/** The nine applications of the speedup tables (Tables 11-13). */
const std::vector<std::string> &speedupApps();

/**
 * Aggregate of one MM application over the standard image set: summed
 * baseline and memoized cycle counts plus pooled fp hit ratios
 * (tables flushed between inputs, hits/lookups pooled).
 */
struct AppCycles
{
    double hitRatioFpDiv = -1.0;  //!< 32/4 table, pooled over inputs
    double hitRatioFpMul = -1.0;
    uint64_t totalCycles = 0;     //!< baseline (no memo) cycles
    uint64_t fpDivCycles = 0;
    uint64_t fpMulCycles = 0;
    uint64_t memoTotalCycles = 0; //!< cycles with the given bank
};

/**
 * Run @p kernel over every standard image under @p lat, with a 32/4
 * bank attached to the units selected by @p memo_mul / @p memo_div,
 * and accumulate cycles plus hit ratios.
 */
AppCycles measureAppCycles(const MmKernel &kernel,
                           const LatencyConfig &lat, bool memo_mul,
                           bool memo_div);

/** One Table 7 row: an MM kernel at 32/4 and infinite. */
struct MmRow
{
    std::string name;
    UnitHits h32;
    UnitHits hinf;
};

/** Table 7: all MM kernels plus per-unit averages (absent skipped). */
struct MmSuiteResult
{
    std::vector<MmRow> rows;
    UnitHits avg32;
    UnitHits avgInf;
};

/** Measure the Multi-Media suite, 32/4 vs infinite (Table 7). */
MmSuiteResult measureMmSuite();

/** Which unit(s) a speedup experiment memoizes. */
enum class SpeedupUnit
{
    FpDiv, //!< Table 11: division only, divider at 13 / 39 cycles
    FpMul, //!< Table 12: multiplication only, multiplier at 3 / 5
    Both,  //!< Table 13: both units, 3/13 (fast) and 5/39 (slow) FPUs
};

/** One latency scenario of a speedup row (the fast or slow column). */
struct SpeedupCell
{
    double fe = 0.0;       //!< Amdahl Fraction Enhanced
    double se = 0.0;       //!< Speedup Enhanced of the memoized unit(s)
    double speedup = 0.0;  //!< analytic (Amdahl) speedup
    double measured = 0.0; //!< cycle-model speedup, baseline/memo
};

/** One application's speedups under the fast and slow scenario. */
struct SpeedupRow
{
    std::string app;
    double hit = -1.0; //!< memoized unit's hit ratio (-1 for Both)
    SpeedupCell fast;
    SpeedupCell slow;
};

/** A whole speedup table plus the paper-style averages. */
struct SpeedupResult
{
    std::vector<SpeedupRow> rows;
    double avgHit = -1.0; //!< average hit ratio (-1 for Both)
    double avgFast = 0.0; //!< average analytic speedup, fast scenario
    double avgSlow = 0.0;
};

/** Measure one of Tables 11/12/13 over the nine speedup apps. */
SpeedupResult measureSpeedups(SpeedupUnit unit);

/** One image's entropy/hit-ratio sample (Table 8 / Figure 2). */
struct EntropyPoint
{
    std::string image;
    double entropyFull = 0.0;  //!< whole-image entropy, bits
    double entropyWin = 0.0;   //!< mean 8x8-window entropy, bits
    double entropyWin16 = 0.0; //!< mean 16x16-window entropy, bits
    double fpMulHit = 0.0;     //!< pooled over all MM kernels
    double fpDivHit = 0.0;
};

/**
 * The four Figure 2 regressions: per-image points plus the
 * Marquardt-Levenberg best-fit line of each (unit x entropy kind).
 */
struct EntropyResult
{
    std::vector<EntropyPoint> points;
    FitResult divFull; //!< fp div vs whole-image entropy
    FitResult divWin;  //!< fp div vs 8x8 window entropy
    FitResult mulFull;
    FitResult mulWin;
};

/** Measure hit ratio vs image entropy (Table 8 / Figure 2). */
EntropyResult measureEntropy();

} // namespace memo::check

#endif // MEMO_CHECK_MEASURE_HH
