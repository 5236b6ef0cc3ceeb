/**
 * @file
 * The self-rendering experiment report.
 *
 * buildExperimentsReport() runs every reproduction measurement through
 * the same check::measure* / check::golden entry points the golden
 * snapshots use, evaluates the paper's shape
 * claims against the measured numbers, and assembles an obs::Report.
 * The memo-report tool renders it to the committed EXPERIMENTS.md and
 * docs/REPORT.html; the `report_drift` check re-renders and diffs, so
 * any code change that moves a reproduced value (or flips a shape
 * claim) fails CI until the artifacts are regenerated.
 */

#ifndef MEMO_CHECK_REPORT_HH
#define MEMO_CHECK_REPORT_HH

#include "obs/report.hh"

namespace memo::check
{

/**
 * Measure everything and build the EXPERIMENTS document.
 *
 * Resets the global StatsRegistry first so the report's
 * instrumentation section reflects exactly the measurements this call
 * performs — which makes the rendered document a pure function of the
 * code and the synthetic inputs (byte-identical on every run and at
 * every --jobs level).
 */
obs::Report buildExperimentsReport();

} // namespace memo::check

#endif // MEMO_CHECK_REPORT_HH
