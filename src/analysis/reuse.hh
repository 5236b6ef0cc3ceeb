/**
 * @file
 * Reuse-distance (LRU stack distance) analysis of operand streams.
 *
 * The hit ratio of a fully associative LRU MEMO-TABLE with n entries
 * is exactly the fraction of accesses whose stack distance is <= n,
 * so the reuse-distance histogram of a workload's operand pairs
 * predicts the whole size sweep of Figure 3 analytically and explains
 * *why* a suite scales (Multi-Media pairs recur at short distances;
 * the Perfect/SPEC pairs of Tables 5/6 recur at distances far beyond
 * any practical table). This is the quantitative form of the
 * Franklin/Sohi register-instance argument the paper cites.
 *
 * Every analysis here reads the op's key stream
 * (TraceStore::accessKeys), built by the table's own classify step:
 * an access is trivial exactly when a default table bypasses it, and
 * two accesses share an id exactly when a full-value table's tags
 * match in its canonical order (commutative operands in ascending bit
 * order, except a both-NaN FpMul pair; commutableBits in core/op.hh).
 * So an infinite full-value table misses exactly coldMisses() times.
 * Only IntMul, FpMul and FpDiv have a key stream.
 */

#ifndef MEMO_ANALYSIS_REUSE_HH
#define MEMO_ANALYSIS_REUSE_HH

#include <cstdint>
#include <vector>

#include "core/op.hh"
#include "trace/trace.hh"

namespace memo
{

/** Reuse-distance histogram of one unit's operand-pair stream. */
class ReuseProfile
{
  public:
    /**
     * @param histogram histogram[d] counts accesses with stack
     *        distance exactly d+1 (d capped at histogram.size()-1)
     * @param cold first-touch accesses (infinite distance)
     */
    ReuseProfile(std::vector<uint64_t> histogram, uint64_t cold);

    /** Total accesses analyzed (excluding trivial operations). */
    uint64_t accesses() const { return total; }

    /** First-touch (compulsory-miss) accesses. */
    uint64_t coldMisses() const { return cold; }

    /**
     * Predicted hit ratio of a fully associative LRU table with
     * @p entries entries: P(stack distance <= entries).
     */
    double predictedHitRatio(unsigned entries) const;

    /** The distance at which the predicted ratio reaches @p target
     *  (table size needed), or 0 when unreachable. */
    unsigned entriesForHitRatio(double target) const;

    const std::vector<uint64_t> &histogram() const { return hist; }

  private:
    std::vector<uint64_t> hist;
    uint64_t cold;
    uint64_t total;
};

/**
 * Compute the reuse-distance profile of @p op's operand pairs in
 * @p trace, over its key stream: trivial operations are excluded, and
 * pairs are identified as the table identifies them. Distances above
 * @p max_distance land in the last bin.
 * @throws std::invalid_argument unless @p op is IntMul, FpMul or FpDiv
 */
ReuseProfile reuseProfile(const Trace &trace, Operation op,
                          unsigned max_distance = 8192);

/** One frequently recurring operand pair. */
struct HotPair
{
    uint64_t aBits;   //!< first operand (canonical order)
    uint64_t bBits;   //!< second operand (0 for unary ops)
    uint64_t count;   //!< dynamic occurrences
};

/**
 * The @p k most frequent non-trivial operand pairs of @p op — the
 * diagnostic a workload author uses to see *what* a table would
 * memoize. Counted per key-stream id, so a pair is what one table
 * entry holds; each is printed as its first access in canonical
 * order. Sorted by descending count, ties by operand value.
 * @throws std::invalid_argument unless @p op is IntMul, FpMul or FpDiv
 */
std::vector<HotPair> hottestPairs(const Trace &trace, Operation op,
                                  size_t k = 10);

/**
 * Reuse summary of one window of an operand stream (the phase
 * engine's windowed counterpart of ReuseProfile; see core/phase.hh
 * for the window semantics).
 */
struct ReuseWindow
{
    uint64_t accesses = 0;   //!< operations presented in the window
    uint64_t trivial = 0;    //!< of which trivial (excluded below)
    uint64_t cold = 0;       //!< first-touch operand pairs
    uint64_t shortReuse = 0; //!< stack distance <= the short threshold
    uint64_t longReuse = 0;  //!< finite distance > the short threshold
};

/**
 * Per-window reuse-distance profile of @p op's operand stream in
 * @p trace. Windows slice the *presented* access stream (trivial
 * operations included in position and in `accesses`, matching
 * MemoTable::accessStamp), so window k here covers the same accesses
 * as PhaseWindow k of a table replaying the same trace with the same
 * @p window. Distances use the same key stream as reuseProfile();
 * a distance <= @p short_distance counts as shortReuse (it would hit
 * any LRU table with that many entries).
 * @throws std::invalid_argument unless @p op is IntMul, FpMul or FpDiv
 */
std::vector<ReuseWindow> windowedReuse(const Trace &trace, Operation op,
                                       uint64_t window,
                                       unsigned short_distance = 32);

} // namespace memo

#endif // MEMO_ANALYSIS_REUSE_HH
