/**
 * @file
 * A multi-ported MEMO-TABLE shared by several instances of the same
 * computation unit (paper section 2.3).
 *
 * With one private table per duplicated unit, recurring calculations
 * dispatched to different units are computed more than once and occupy
 * more than one table. Sharing one larger multi-ported table lets one
 * unit reuse work performed by another; this class additionally counts
 * cross-unit hits (hits on entries installed by a different unit) and
 * port conflicts (simultaneous accesses beyond the port count, which
 * are forced to miss).
 */

#ifndef MEMO_CORE_SHARED_TABLE_HH
#define MEMO_CORE_SHARED_TABLE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/memo_table.hh"

namespace memo
{

/** A MemoTable front-end shared by multiple computation units. */
class SharedMemoTable
{
  public:
    /**
     * @param op operation memoized
     * @param cfg underlying table configuration
     * @param ports simultaneous lookups served per cycle
     */
    SharedMemoTable(Operation op, const MemoConfig &cfg, unsigned ports);

    /**
     * Look up on behalf of one unit.
     *
     * @param cu_id which computation unit issues the access
     * @param cycle current cycle, for port-conflict accounting
     */
    std::optional<uint64_t> lookup(unsigned cu_id, uint64_t cycle,
                                   uint64_t a_bits, uint64_t b_bits = 0);

    /** Install a result computed by @p cu_id. */
    void update(unsigned cu_id, uint64_t a_bits, uint64_t b_bits,
                uint64_t result_bits);

    void reset(); //!< Invalidate all entries and zero the statistics.

    const MemoStats &stats() const { return inner.stats(); } //!< Counters.
    /** Hits whose entry was installed by a different unit. */
    uint64_t crossUnitHits() const { return crossHits; }
    /** Lookups rejected because all ports were busy. */
    uint64_t portConflicts() const { return conflicts; }

  private:
    struct KeyHash
    {
        size_t
        operator()(const std::pair<uint64_t, uint64_t> &k) const
        {
            uint64_t h = k.first * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 32;
            h += k.second * 0xc2b2ae3d27d4eb4fULL;
            return static_cast<size_t>(h ^ (h >> 29));
        }
    };

    /** Writer-map key: the operand pair in the order the inner table
     *  matches it (swapped only where commutableBits() allows). */
    std::pair<uint64_t, uint64_t> canonical(uint64_t a, uint64_t b) const;

    MemoTable inner;
    unsigned ports;
    uint64_t currentCycle = ~uint64_t{0};
    unsigned accessesThisCycle = 0;
    uint64_t crossHits = 0;
    uint64_t conflicts = 0;
    /** Which unit installed each (operand pair) entry. */
    std::unordered_map<std::pair<uint64_t, uint64_t>, unsigned, KeyHash>
        writers;
};

} // namespace memo

#endif // MEMO_CORE_SHARED_TABLE_HH
