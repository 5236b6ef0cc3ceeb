/**
 * @file
 * The benchmark's workloads: what one set-up and one timed rep do, and
 * how each rep's output is checked.
 *
 * Every workload calls only public layer functions (exec, analysis,
 * sim, check, obs) and wraps each call into a layer in a span named
 * `<workload>/<phase>/<layer>`; spans cost nothing while the global
 * profiler is off, which is how end-to-end runs are taken.
 */

#ifndef MEMO_LEDGER_WORKLOADS_HH
#define MEMO_LEDGER_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.hh"

namespace ledger
{

/** What one set-up or one timed rep produced. */
struct Outcome
{
    uint64_t digest = 0;   //!< FNV-1a over every simulated statistic
    std::string error;     //!< the rep's own first failed check; "" = ok
    bool timingOnly = false; //!< produced nothing to check (traced report)
    /** The rep's checkable results (bands, cycle totals), in order. */
    std::vector<double> values;
    uint64_t accesses = 0;     //!< MEMO-TABLE lookups + trivialBypassed
    uint64_t instructions = 0; //!< trace instructions fed to tables/CPU
    uint64_t records = 0;      //!< trace records recorded
    uint64_t columnRecords = 0; //!< operand records put into columns
    uint64_t distinctTraces = 0; //!< distinct traces the phase used
    memo::MemoStats core;      //!< every table's statistics, pooled
    uint64_t cyclesBase = 0;   //!< CpuModel cycles without tables
    uint64_t cyclesMemo = 0;   //!< CpuModel cycles with tables
    uint64_t l1Accesses = 0;
    uint64_t l1Hits = 0;
    /** Workload-specific numbers (paper_report stage counts, ...). */
    std::map<std::string, double> extra;
};

/** How much work a workload does; Small is the self-test's plan. */
enum class Scale
{
    Full,
    Small,
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs (and record traces, where the workload runs
     * warm). Called once per object, with the trace cache empty.
     */
    virtual Outcome setup(const std::string &phase) = 0;

    /**
     * One timed rep. With @p corrupt the rep falsifies one value of
     * its output before its own checks run (the self-test's fault).
     */
    virtual Outcome rep(const std::string &phase, bool corrupt) = 0;

    /**
     * Compare @p r with an independent computation made once, untimed,
     * on first use. Returns the first mismatch, or "" (also when the
     * seed has no reference).
     */
    virtual std::string reference(const Outcome &r) = 0;
};

/** Every workload, in the order `all` runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name. @p root is the repository checkout (the
 * paper_report check reads the committed report from it). Throws
 * std::invalid_argument for unknown names.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, unsigned jobs,
                                       Scale scale,
                                       const std::string &root);

} // namespace ledger

#endif // MEMO_LEDGER_WORKLOADS_HH
