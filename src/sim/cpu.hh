/**
 * @file
 * Trace-replaying CPU cycle model.
 *
 * This reproduces the paper's speedup methodology (section 3.3): "the
 * indicator of speedup is total cycle count executed by all
 * instructions", with a two-level memory hierarchy charged on loads,
 * and no multiple issue or overlap. A memoizable instruction whose
 * MEMO-TABLE lookup hits completes in a single cycle; on a miss it pays
 * its full unit latency (the lookup runs in parallel, so a miss adds no
 * penalty) and the result is installed in the table.
 *
 * A compute instruction's cost depends only on its class and on whether
 * its table hit, so CpuModel::run charges each compute class from its
 * table's hit count after replayTables(). Its oracle is
 * check::referenceCpuRun (check/oracle.hh), the per-instruction loop.
 */

#ifndef MEMO_SIM_CPU_HH
#define MEMO_SIM_CPU_HH

#include <atomic>
#include <map>

#include "core/bank.hh"
#include "obs/stats.hh"
#include "sim/cache.hh"
#include "sim/latency.hh"
#include "trace/trace.hh"

namespace memo
{

/** Configuration of the serial cycle-accounting model. */
struct CpuConfig
{
    LatencyConfig lat = LatencyConfig::preset(CpuPreset::FastFpu);
    CacheConfig l1{8 * 1024, 32, 2, 1};
    CacheConfig l2{256 * 1024, 64, 4, 6};
    unsigned memoryLatency = 30;
    /**
     * Annulled delay-slot instructions per thousand branches (the
     * paper's simulator "takes into account annulled instructions in
     * the pipeline"); each costs one wasted issue cycle.
     */
    unsigned annulPerMille = 100;
    /**
     * Optional progress sink: when non-null, run() adds the number of
     * instructions replayed to this counter in coarse batches (every
     * 64 Ki instructions plus once at the end). Display-only — the
     * model reads no clocks and its results do not depend on the
     * pointer — and null by default, so replays stay entirely free of
     * shared-state traffic unless a caller (memo-sim --progress)
     * wires a prof::Heartbeat counter in.
     */
    std::atomic<uint64_t> *progress = nullptr;
};

/** Outcome of replaying one trace. */
struct SimResult
{
    uint64_t totalCycles = 0;
    uint64_t annulCycles = 0; //!< wasted cycles from annulled slots
    /** Cycles and dynamic counts per instruction class. */
    std::array<uint64_t, numInstClasses> cycles{};
    std::array<uint64_t, numInstClasses> count{};
    /**
     * Cycles a MEMO-TABLE hit shaved off each class: the unit's full
     * latency minus the single hit cycle, summed over hits. The
     * per-unit answer to "where did the speedup come from" —
     * cyclesOf(cls) is what the unit still cost, memoSavedOf(cls)
     * what memoing saved it.
     */
    std::array<uint64_t, numInstClasses> memoSaved{};
    /**
     * Completion-latency histogram per class (unit occupancy): how
     * many instructions of the class retired in <=1, <=2, <=4, ...
     * cycles. Memoing shows up as mass moving into the first bucket.
     */
    std::array<obs::Histogram, numInstClasses> occupancy;
    /** Snapshot of each attached MEMO-TABLE's statistics. */
    std::map<Operation, MemoStats> memo;
    CacheStats l1;
    CacheStats l2;

    uint64_t
    cyclesOf(InstClass cls) const
    {
        return cycles[static_cast<unsigned>(cls)];
    }

    uint64_t
    countOf(InstClass cls) const
    {
        return count[static_cast<unsigned>(cls)];
    }

    uint64_t
    memoSavedOf(InstClass cls) const
    {
        return memoSaved[static_cast<unsigned>(cls)];
    }

    /** Total cycles saved by MEMO-TABLE hits across all units. */
    uint64_t
    totalMemoSaved() const
    {
        uint64_t sum = 0;
        for (uint64_t s : memoSaved)
            sum += s;
        return sum;
    }

    /** Fraction of total cycles spent in @p cls (Amdahl's FE). */
    double
    cycleFraction(InstClass cls) const
    {
        return totalCycles ? static_cast<double>(cyclesOf(cls)) /
                                 static_cast<double>(totalCycles)
                           : 0.0;
    }
};

/**
 * Accesses gathered per probeBlock call by replayTables()' blocked
 * path. Exposed so the differential tests can pin behaviour exactly at
 * and around block boundaries (lengths block-1, block, block+1).
 */
constexpr size_t kReplayBlock = 4096;

/**
 * Feed every operand column of @p store that has a table in @p bank
 * through that table, in trace order: the one replay path. A table
 * for which MemoTable::keyedReplayable(n) holds replays the store's
 * shared key stream (TraceStore::accessKeys) through
 * MemoTable::replayKeyed; any other takes MemoTable::probeBlock in
 * blocks of kReplayBlock. No flag selects the path, and either way
 * the table ends exactly as n scalar lookup/update calls leave it.
 * Nothing is folded into the stats registry.
 */
void replayTables(const TraceStore &store, MemoBank &bank);

/** The serial trace replayer. */
class CpuModel
{
  public:
    explicit CpuModel(const CpuConfig &cfg = CpuConfig{});

    /**
     * Replay @p trace.
     *
     * @param bank MEMO-TABLEs to consult, or nullptr for the baseline
     *        machine. Tables retain their contents across calls; reset
     *        the bank for independent runs. The run folds its
     *        sim.cpu.* counters, and no core.table.* or
     *        analysis.replay.* counter.
     */
    SimResult run(const Trace &trace, MemoBank *bank = nullptr);

  private:
    CpuConfig cfg;
};

} // namespace memo

#endif // MEMO_SIM_CPU_HH
