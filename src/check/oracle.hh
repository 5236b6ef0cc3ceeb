/**
 * @file
 * The exact oracle: an unbounded, fully associative shadow MEMO-TABLE.
 *
 * OracleTable models the *semantics* of the paper's table directly —
 * trivial-operation policy (Table 9), commutative tag ordering
 * (section 2.2), mantissa-only tagging with exponent reconstruction
 * (Table 10) — but with no geometry at all: every installed pair is
 * retained forever in a plain map. It is implemented independently of
 * MemoTable (sharing only the low-level arith/ field helpers) so the
 * two can be differentially compared:
 *
 *  - any real table's hits must be a subset of the oracle's hits on
 *    the same access stream (a finite table cannot know results an
 *    unbounded one never saw — a hit outside that set is a
 *    tag-comparison or indexing bug);
 *  - a real table configured as cfg.infinite must agree with the
 *    oracle on every hit/miss decision;
 *  - whenever both hit, the result bits must match exactly.
 *
 * See differ.hh for the comparison harness and fuzz.hh for the
 * adversarial stream generator that drives it.
 *
 * Next to it, referenceCpuRun() is the per-instruction cycle loop that
 * CpuModel::run is held to.
 */

#ifndef MEMO_CHECK_ORACLE_HH
#define MEMO_CHECK_ORACLE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/config.hh"
#include "core/op.hh"
#include "core/stats.hh"
#include "sim/cpu.hh"

namespace memo::check
{

/** Unbounded exact reference model of one MEMO-TABLE. */
class OracleTable
{
  public:
    /**
     * @param op the operation modeled
     * @param cfg policy knobs (tagMode, trivialMode, extendedTrivial);
     *        geometry fields are ignored — the oracle is unbounded
     */
    OracleTable(Operation op, const MemoConfig &cfg);

    /** Present operands; mirrors MemoTable::lookup semantics. */
    std::optional<uint64_t> lookup(uint64_t a_bits, uint64_t b_bits = 0);

    /** Install a computed result; mirrors MemoTable::update. */
    void update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits);

    void reset();

    const MemoStats &stats() const { return stats_; }
    Operation operation() const { return op; }
    size_t size() const { return table.size(); }

  private:
    struct Key
    {
        uint64_t a;
        uint64_t b;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            uint64_t h = (k.a + 0x9e3779b97f4a7c15ULL) *
                         0xff51afd7ed558ccdULL;
            h ^= h >> 33;
            h += k.b * 0xc4ceb9fe1a85ec53ULL;
            h ^= h >> 29;
            return static_cast<size_t>(h);
        }
    };

    struct Payload
    {
        uint64_t value; //!< full result bits, or result fraction
        int delta;      //!< exponent adjustment (mantissa mode)
    };

    /** Trivial detection under the configured policy. */
    bool trivialResult(uint64_t a_bits, uint64_t b_bits,
                       uint64_t &result) const;

    bool mantissaMode() const;
    bool taggable(uint64_t a_bits, uint64_t b_bits) const;
    Key keyOf(uint64_t a_bits, uint64_t b_bits) const;

    /** Expected result exponent field from the operand exponents. */
    int resultExponent(uint64_t a_bits, uint64_t b_bits,
                       int delta) const;

    Operation op;
    MemoConfig cfg;
    std::unordered_map<Key, Payload, KeyHash> table;
    MemoStats stats_;
};

/**
 * The oracle of CpuModel::run: the per-instruction loop it replaced.
 * Each record costs its unit latency, or what the cache model returns
 * for a load or store; a memoizable record whose table's scalar
 * lookup() returns a value costs one cycle (and that value must be the
 * record's result, a MEMO_CHECK), and a miss calls update().
 *
 * Returns what CpuModel::run returns for the same config, trace and
 * bank state, and leaves the bank as it does — statistics, entries,
 * hook events and phase rows — but folds nothing into the stats
 * registry and reports no progress. Kept deliberately simple; do not
 * optimize it.
 */
SimResult referenceCpuRun(const CpuConfig &cfg, const Trace &trace,
                          MemoBank *bank = nullptr);

/**
 * The first field in which two SimResults differ — total and annulled
 * cycles, per-class cycles, counts, memo savings and occupancy
 * histograms, each table's statistics, and both cache levels — named
 * with both values, or nullopt when they are equal field for field.
 */
std::optional<std::string> simResultDiff(const SimResult &want,
                                         const SimResult &got);

} // namespace memo::check

#endif // MEMO_CHECK_ORACLE_HH
