/**
 * @file
 * Versioned benchmark-record schema and the noise-aware regression
 * gate behind memo-bench.
 *
 * memo-bench's perf artifact, BENCH_history.json, is one JSON
 * document `{"schema": N, "records": [...]}` whose records carry the
 * scenario name, warmup/repetition counts, the robust summary of the
 * wall-clock samples (median and MAD — the paper-sound statistics
 * for skewed timing noise), the raw samples themselves, free-form
 * scenario metrics, and an environment manifest (git sha, compiler,
 * build flags, CPU model, hardware threads) so a number is never
 * separated from the machine that produced it.
 *
 * The gate (gateCompare) compares each scenario's current median
 * against the most recent record of the same scenario in the
 * history. A regression is declared only when the current median
 * exceeds baseline + max(rel_slack * baseline, mad_k * MAD, abs
 * floor) — MAD-scaled so a noisy scenario earns a wide band and a
 * stable one stays tight, with an absolute floor so microsecond
 * scenarios cannot flake the gate.
 */

#ifndef MEMO_PROF_BENCH_RECORD_HH
#define MEMO_PROF_BENCH_RECORD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace memo::prof
{

/** Version of the BENCH_*.json document layout. */
constexpr int benchSchemaVersion = 1;

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

/** One scenario's measured result. */
struct BenchRecord
{
    std::string scenario; //!< registered scenario name
    std::string suite;    //!< suite it ran under ("quick", "sweep")
    unsigned reps = 0;    //!< timed repetitions
    unsigned warmup = 0;  //!< discarded warmup repetitions
    unsigned jobs = 0;    //!< worker threads the scenario used
    double medianSec = 0; //!< median of samplesSec
    double madSec = 0;    //!< median absolute deviation
    double minSec = 0;
    double maxSec = 0;
    std::vector<double> samplesSec; //!< per-rep wall seconds
    /** Scenario metrics (items/s, sweep points, speedup, ...). */
    std::map<std::string, double> extra;
    EnvManifest env;
};

/** Median of @p xs (empty -> 0). Does not require sorted input. */
double medianOf(std::vector<double> xs);

/** Median absolute deviation of @p xs around @p median. */
double madOf(const std::vector<double> &xs, double median);

/** Fill median/mad/min/max of @p r from its samplesSec. */
void summarizeSamples(BenchRecord &r);

/** Render records as the canonical schema-versioned JSON document. */
std::string renderBenchJson(const std::vector<BenchRecord> &records);

/**
 * Parse a BENCH_*.json document. @return false (with @p error set)
 * on malformed input or an unsupported schema version.
 */
bool parseBenchJson(const std::string &json,
                    std::vector<BenchRecord> &out, std::string &error);

/** Read @p path; a missing file yields an empty record list. */
bool readBenchFile(const std::string &path,
                   std::vector<BenchRecord> &out, std::string &error);

/** Write @p records to @p path as the canonical document. */
bool writeBenchFile(const std::string &path,
                    const std::vector<BenchRecord> &records);

/** Gate tolerances (see file comment for the formula). */
struct GateOptions
{
    double relSlack = 0.30;    //!< fraction of baseline median
    double madK = 5.0;         //!< MAD multiples added to the band
    double absFloorSec = 0.005; //!< minimum band width in seconds
};

/** One scenario's gate verdict. */
struct GateRow
{
    std::string scenario;
    double baselineSec = -1; //!< baseline median (-1 when new)
    double currentSec = 0;   //!< current median
    double thresholdSec = 0; //!< baseline + allowed band (0 when new)
    double deltaPct = 0;     //!< (current/baseline - 1) * 100
    bool isNew = false;      //!< no baseline in the history
    bool regressed = false;
};

/**
 * Compare @p current against the latest same-scenario records in
 * @p history. Scenarios with no history pass as new.
 */
std::vector<GateRow> gateCompare(
    const std::vector<BenchRecord> &history,
    const std::vector<BenchRecord> &current,
    const GateOptions &opt = GateOptions{});

} // namespace memo::prof

#endif // MEMO_PROF_BENCH_RECORD_HH
