/**
 * @file
 * Golden regression layer: the paper-table metrics as reusable
 * computations plus canonical JSON snapshots of their results.
 *
 * The hit-ratio/latency numbers behind Tables 1, 5, 6, 9 and 10 and
 * Figures 3 and 4 are computed here, once, and consumed by three
 * callers:
 *
 *  - memo-report, which renders them next to the paper's reference
 *    values in EXPERIMENTS.md and docs/REPORT.html;
 *  - memo-plots, which writes the Figure 3/4 bands as gnuplot data;
 *  - the memo-golden tool, which serializes them as canonical JSON and
 *    diffs them against the checked-in snapshots in tests/golden/
 *    (ctest `golden_diff`). Any change to table geometry, replacement,
 *    trivial-op handling, workload code or image generation that moves
 *    a reproduced paper value shows up as a failing diff that must be
 *    acknowledged by regenerating the snapshots (memo-golden --regen).
 *
 * Everything is deterministic: traces come from the process-wide
 * cache, exec::sweep results are index-aligned regardless of thread
 * count, and doubles are printed with %.17g (exact round trip).
 */

#ifndef MEMO_CHECK_GOLDEN_HH
#define MEMO_CHECK_GOLDEN_HH

#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "workloads/workload.hh"

namespace memo::check
{

/**
 * Crop size all hit-ratio measurements use (see DESIGN.md for the
 * 96-pixel rationale).
 */
constexpr int goldenCrop = 96;

/** One Table 1 processor: its fp multiply and divide latencies. */
struct PresetLatency
{
    std::string name;
    unsigned fpMul = 0;
    unsigned fpDiv = 0;
};

/** One arithmetic-unit timing model and the latency it derives. */
struct UnitLatency
{
    std::string name;          //!< golden key, e.g. "srt-divider-r4"
    unsigned bitsPerCycle = 0; //!< result bits retired per cycle
    unsigned latency = 0;      //!< cycles of a non-exceptional operation
};

/** Table 1: the processor presets plus the unit timing models. */
struct Table1Result
{
    std::vector<PresetLatency> presets;
    std::vector<UnitLatency> units;
};

/** Read the Table 1 presets and time the arithmetic unit models. */
Table1Result measureTable1();

/** One scientific workload measured at 32/4 and infinite (Tables 5/6). */
struct SciRow
{
    std::string name;
    UnitHits h32;
    UnitHits hinf;
};

/** A whole suite plus its per-unit averages (absent units skipped). */
struct SciSuiteResult
{
    std::vector<SciRow> rows;
    UnitHits avg32;
    UnitHits avgInf;
};

/** Measure a Perfect/SPEC suite, fanned out over the executor. */
SciSuiteResult measureSciSuite(const std::vector<SciWorkload> &suite);

/** One unit's Table 9 row: trivial fraction and per-policy hit ratios. */
struct TrivialModeRow
{
    double trv = -1.0;   //!< fraction of operations that are trivial
    double all = -1.0;   //!< hit ratio, trivial ops cached
    double non = -1.0;   //!< hit ratio, trivial ops bypassed
    double intgr = -1.0; //!< hit ratio, integrated trivial detection
};

/** Measure one kernel/unit pair over the standard images (Table 9). */
TrivialModeRow measureTrivialModes(const MmKernel &kernel, Operation op);

/** The eight applications of Table 9. */
const std::vector<std::string> &table9Apps();

/** Suite-average fp hit ratios of one tag mode (Table 10). */
struct SuiteAvg
{
    double fpMul = 0.0;
    double fpDiv = 0.0;
};

/** Full-value vs mantissa-only averages for both suites (Table 10). */
struct TagModeResult
{
    SuiteAvg perfectFull, perfectMant;
    SuiteAvg mmFull, mmMant;
};

TagModeResult measureTagModes();

/** min/avg/max hit ratio across the sweep kernels for one config. */
struct BandRow
{
    double avg = -1.0;
    double lo = -1.0;
    double hi = -1.0;
};

/** Per-config bands for both fp units, index-aligned with the input. */
struct SweepBands
{
    std::vector<BandRow> fpDiv;
    std::vector<BandRow> fpMul;
};

/** Sweep the five Figure 3/4 kernels over @p cfgs. */
SweepBands measureSweepBands(const std::vector<MemoConfig> &cfgs);

/** The table sizes of Figure 3 (entries, 4-way). */
const std::vector<unsigned> &fig3Sizes();

/** The associativities of Figure 4 (ways, 32 entries). */
const std::vector<unsigned> &fig4Ways();

/** One 4-way table per fig3Sizes() entry, for measureSweepBands. */
std::vector<MemoConfig> fig3Configs();

/** One 32-entry table per fig4Ways() entry, for measureSweepBands. */
std::vector<MemoConfig> fig4Configs();

/** One golden document: a name and its canonical JSON producer. */
struct GoldenDoc
{
    std::string name;        //!< snapshot file stem (tests/golden/<name>.json)
    std::string (*produce)(); //!< compute and serialize the current value
};

/** All golden documents, in canonical (cheap-first) order. */
const std::vector<GoldenDoc> &goldenDocs();

} // namespace memo::check

#endif // MEMO_CHECK_GOLDEN_HH
