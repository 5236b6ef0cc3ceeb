/**
 * @file
 * Robust timing statistics and the environment manifest of the
 * benchmark of record (memo-ledger, benchmark/ledger.cc).
 *
 * A BenchRecord holds one workload's per-repetition wall times and
 * their robust summary: median and MAD, the sound statistics for
 * skewed timing noise, plus min and max. EnvManifest names the build
 * and machine (git sha, compiler, build flags, CPU model, hardware
 * threads) so a number is never separated from what produced it.
 */

#ifndef MEMO_PROF_BENCH_RECORD_HH
#define MEMO_PROF_BENCH_RECORD_HH

#include <string>
#include <vector>

namespace memo::prof
{

/** Where (and from what) a benchmark record was measured. */
struct EnvManifest
{
    std::string gitSha;   //!< configure-time HEAD, or "unknown"
    std::string compiler; //!< "gcc 13.2.0" / "clang ..."
    std::string flags;    //!< CXX flags of the build type
    std::string cpu;      //!< /proc/cpuinfo model name
    unsigned hwThreads = 0;

    /** The manifest of this build on this machine. */
    static EnvManifest collect();
};

/** One workload's timed repetitions and their summary. */
struct BenchRecord
{
    unsigned reps = 0;    //!< timed repetitions
    double medianSec = 0; //!< median of samplesSec
    double madSec = 0;    //!< median absolute deviation
    double minSec = 0;
    double maxSec = 0;
    std::vector<double> samplesSec; //!< per-rep wall seconds
};

/** Median of @p xs (empty -> 0). Does not require sorted input. */
double medianOf(std::vector<double> xs);

/** Median absolute deviation of @p xs around @p median. */
double madOf(const std::vector<double> &xs, double median);

/** Fill median/mad/min/max of @p r from its samplesSec. */
void summarizeSamples(BenchRecord &r);

} // namespace memo::prof

#endif // MEMO_PROF_BENCH_RECORD_HH
