/**
 * @file
 * Phase-resolved (windowed) MEMO-TABLE statistics.
 *
 * Whole-run counters (core/stats.hh) answer *whether* a table wins;
 * the phase accumulator answers *when*. A PhaseAccum attached to a
 * MemoTable (MemoTable::setPhaseAccum) slices the table's access
 * stream — positions measured by MemoTable::accessStamp() — into
 * fixed-size windows and records, per window, the deltas of every
 * MemoStats counter plus the table occupancy at the window boundary.
 *
 * The collection contract is the one the batched replay hot loop
 * needs: MemoTable::probeBlock() splits each block into segments
 * ending at window boundaries, so the per-access path carries no
 * phase bookkeeping at all (no per-probe callback), and a detached
 * table (the default) pays a single null test per block. lookup()
 * applies the same rule as a segment of one access. Rows are plain
 * exact integers, so any consumer that folds them in a fixed order
 * serializes bit-identically at any `--jobs` level.
 *
 * Boundary rule: a window covering accesses [start, start+W) is
 * closed lazily at the *start* of the first access at stamp start+W
 * (or by finalize(), which also closes a trailing partial window).
 * Closing at access start — before the access is counted, after the
 * previous access's update() completed — puts a miss's insertion in
 * the window of the access that caused it, however the accesses are
 * split into probeBlock() calls.
 */

#ifndef MEMO_CORE_PHASE_HH
#define MEMO_CORE_PHASE_HH

#include <cstdint>
#include <vector>

#include "core/stats.hh"

namespace memo
{

/** Per-field difference of two cumulative counter snapshots. */
inline MemoStats
statsDelta(const MemoStats &now, const MemoStats &before)
{
    MemoStats d;
    d.lookups = now.lookups - before.lookups;
    d.hits = now.hits - before.hits;
    d.trivialHits = now.trivialHits - before.trivialHits;
    d.misses = now.misses - before.misses;
    d.insertions = now.insertions - before.insertions;
    d.evictions = now.evictions - before.evictions;
    d.trivialBypassed = now.trivialBypassed - before.trivialBypassed;
    d.parityMisses = now.parityMisses - before.parityMisses;
    return d;
}

/** One closed window of a table's access stream. */
struct PhaseWindow
{
    uint64_t start = 0;  //!< access stamp of the first access covered
    uint64_t length = 0; //!< accesses covered (== window, except a final partial row)
    MemoStats stats;     //!< counter deltas within the window
    uint32_t occupancy = 0; //!< valid entries when the window closed

    /**
     * Conflict-miss estimate: misses that displaced a valid entry.
     * Every eviction in a window is a miss that found its set full,
     * so the eviction delta splits the window's misses into conflict
     * (evictions) and capacity/cold (the remainder, capacityMisses()).
     */
    uint64_t conflictMisses() const { return stats.evictions; }

    /** Cold/capacity miss estimate: misses that found a free way. */
    uint64_t
    capacityMisses() const
    {
        return stats.misses - (stats.evictions < stats.misses
                                   ? stats.evictions
                                   : stats.misses);
    }
};

/**
 * Interval-statistics accumulator for one MemoTable.
 *
 * Owned by the caller (it must outlive the table's use of it, or be
 * detached first); the table writes rows through the bookkeeping
 * fields below. Attach with MemoTable::setPhaseAccum(), which
 * re-bases the bookkeeping at the table's current stamp, replay, then
 * call MemoTable::finalizePhases() to close the trailing partial
 * window before reading rows().
 */
class PhaseAccum
{
  public:
    /**
     * @param window_size window length in accesses (> 0)
     * @param per_set also record per-set valid-entry counts at every
     *        window close (a scan per window; for occupancy heatmaps)
     */
    explicit PhaseAccum(uint64_t window_size, bool per_set = false)
        : window_(window_size ? window_size : 1), perSet_(per_set)
    {
    }

    /** Window length in accesses. */
    uint64_t window() const { return window_; }

    /** Whether per-set occupancy is recorded at window closes. */
    bool perSet() const { return perSet_; }

    /** Closed windows, oldest first. */
    const std::vector<PhaseWindow> &rows() const { return rows_; }

    /**
     * Per-set valid-entry counts at the window closes, flattened:
     * setStride() consecutive entries per row, parallel to rows()
     * when perSet() is on; empty otherwise (and for infinite tables,
     * whose rows carry occupancy but have no sets). Flat on purpose —
     * a vector per close would put one allocation on the replay path
     * every window.
     */
    const std::vector<uint32_t> &setOccupancy() const { return setOcc_; }

    /** Sets per setOccupancy() row (0 until a per-set row exists). */
    unsigned setStride() const { return setStride_; }

    /**
     * Append one closed window (called by the owning MemoTable) and
     * return the row's zeroed per-set slot of @p sets entries for the
     * caller to fill — nullptr when per-set collection is off or
     * @p sets is 0.
     */
    uint32_t *
    push(const PhaseWindow &row, unsigned sets)
    {
        rows_.push_back(row);
        if (!perSet_ || sets == 0)
            return nullptr;
        setStride_ = sets;
        size_t at = setOcc_.size();
        setOcc_.resize(at + sets, 0);
        return setOcc_.data() + at;
    }

    /** Forget all rows and re-base at stamp/stats zero. */
    void
    clear()
    {
        rows_.clear();
        setOcc_.clear();
        setStride_ = 0;
        flushedThrough = 0;
        last = MemoStats{};
    }

    /**
     * Access stamp through which rows have been closed (the start of
     * the currently open window). Maintained by the attached table.
     */
    uint64_t flushedThrough = 0;

    /** Cumulative table counters at the last close (delta base). */
    MemoStats last;

  private:
    uint64_t window_;
    bool perSet_;
    unsigned setStride_ = 0;
    std::vector<PhaseWindow> rows_;
    std::vector<uint32_t> setOcc_; //!< setStride_ entries per row
};

/**
 * Test-only fault injection: when enabled, attached tables detect
 * window boundaries one access late, so every phase row covers a
 * shifted access range. The phase differential tests
 * (tests/test_phase.cc) turn this on to prove the scalar reference
 * accumulator they check against has teeth. Never enable outside
 * tests.
 */
void setPhaseBoundaryFault(bool enabled);

} // namespace memo

#endif // MEMO_CORE_PHASE_HH
