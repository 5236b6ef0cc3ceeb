/**
 * @file
 * memo-scope: the phase-resolved interval-metrics engine.
 *
 * core/phase.hh collects raw windowed counter rows inside the table;
 * this layer turns them into consumable artifacts, all deterministic
 * byte for byte:
 *
 *  - PhaseScope — RAII attachment of one PhaseAccum per table of a
 *    MemoBank, collected into PhaseProfiles in fixed operation order;
 *  - renderPhasesJson() — the versioned `phases.json` side artifact;
 *  - appendCounterEventsJson() — Chrome-trace counter events ("ph":
 *    "C") on the same pid/tid/timestamp conventions as
 *    EventTracer::appendEventsJson, so phase series merge onto the
 *    existing host-span + table-event timeline;
 *  - publishPhases() — TimeSeries/Histogram publication through a
 *    StatsRegistry (exact integers only: ratios are scaled to
 *    permille before recording).
 *
 * tests/test_phase.cc pins the in-table collection against an
 * independent scalar accumulator driven from outside the table.
 */

#ifndef MEMO_OBS_PHASE_HH
#define MEMO_OBS_PHASE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/bank.hh"
#include "core/memo_table.hh"
#include "core/phase.hh"
#include "obs/stats.hh"

namespace memo::obs
{

/** The finished phase record of one table: rows plus geometry. */
struct PhaseProfile
{
    Operation op = Operation::IntMul; //!< memoized operation class
    uint64_t window = 0;              //!< window length in accesses
    unsigned entries = 0;             //!< table entries (0 = infinite)
    unsigned ways = 0;                //!< set associativity
    /**
     * Cycles one memo hit saves (unit latency minus the single table
     * cycle); supplied by the caller from a sim LatencyConfig — 0
     * when no latency model applies. Per-window saved cycles are
     * rows[i].stats.allHits() * savedCyclesPerHit.
     */
    uint64_t savedCyclesPerHit = 0;
    std::vector<PhaseWindow> rows;    //!< closed windows, oldest first
    /** Per-set occupancy at each close (empty unless collected). */
    std::vector<std::vector<uint32_t>> setOccupancy;
};

/**
 * RAII phase collection over every table of a MemoBank.
 *
 * Construction attaches one PhaseAccum per table, re-based at each
 * table's current stamp; destruction detaches. Call finalize() after
 * the replay, then profiles() to harvest rows. Operation order is
 * the enum order, fixed regardless of how the bank was built.
 */
class PhaseScope
{
  public:
    /**
     * @param bank the bank whose tables to observe (borrowed; must
     *        outlive the scope)
     * @param window window length in accesses (> 0)
     * @param per_set also record per-set occupancy at window closes
     */
    PhaseScope(MemoBank &bank, uint64_t window, bool per_set = false);

    ~PhaseScope(); //!< Detaches every accumulator.

    PhaseScope(const PhaseScope &) = delete;            //!< Accums pin addresses.
    PhaseScope &operator=(const PhaseScope &) = delete; //!< Accums pin addresses.

    /** Close trailing partial windows on every observed table. */
    void finalize();

    /**
     * Harvest one profile per observed table, in Operation enum
     * order, with savedCyclesPerHit left 0 (callers with a latency
     * model fill it in).
     */
    std::vector<PhaseProfile> profiles() const;

  private:
    MemoBank &bank_;
    std::vector<Operation> ops_;
    std::vector<PhaseAccum> accums_; //!< parallel to ops_
};

/**
 * Render the versioned `phases.json` artifact: schema version,
 * label, window size, and one record per profile with all raw
 * per-window counters plus the derived conflict/capacity split,
 * permille hit ratio and saved cycles. Fixed field order, integer
 * arithmetic only — byte-identical for equal inputs on every
 * platform and at any `--jobs` level.
 */
std::string renderPhasesJson(const std::vector<PhaseProfile> &profiles,
                             std::string_view label);

/**
 * Append Chrome-trace counter events ("ph": "C") for every window of
 * every profile to an already-open "traceEvents" array: one counter
 * track per operation (hit permille, occupancy, evictions), ts = the
 * window's starting access stamp, pid/tid as in
 * EventTracer::appendEventsJson so the tracks interleave with table
 * events and host spans on one timeline. @p first is the caller's
 * between-objects state, as in EventTracer::appendEventsJson.
 */
void appendCounterEventsJson(std::ostream &os, bool &first,
                             const std::vector<PhaseProfile> &profiles);

/**
 * Publish a profile set through @p registry under
 * `phase.<op>.`: per-window TimeSeries (lookups, allHits, misses,
 * insertions, evictions, occupancy, hitPermille, savedCycles) and a
 * log2-bucketed Histogram of per-window hits. All exact integers.
 */
void publishPhases(StatsRegistry &registry,
                   const std::vector<PhaseProfile> &profiles);

} // namespace memo::obs

#endif // MEMO_OBS_PHASE_HH
