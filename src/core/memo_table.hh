/**
 * @file
 * The MEMO-TABLE: a cache-like lookup table that memoizes the operands
 * and result of multi-cycle arithmetic operations (Citron, Feitelson &
 * Rudolph, ASPLOS'98, section 2).
 *
 * Operands are presented to the table in parallel with the conventional
 * computation unit. A tag hit returns the previously computed result (a
 * single-cycle operation); a miss costs nothing, and the computed result
 * is inserted in parallel with write-back.
 *
 * The table operates on raw 64-bit operand patterns so that one
 * implementation serves integer and floating point units; Operation
 * selects the indexing/tagging scheme:
 *  - integer ops index with the XOR of the low operand bits;
 *  - fp ops index with the XOR of the top mantissa bits;
 *  - commutative ops (both multiplies) store and compare tags in one
 *    canonical operand order, so a*b and b*a share an entry (section
 *    2.2; both-NaN pairs keep operand order, see commutableBits());
 *  - MantissaOnly tag mode stores only mantissas and reconstructs the
 *    result's sign/exponent, raising hit ratios slightly (Table 10);
 *  - trivial operations are bypassed, cached, or folded into hits
 *    according to TrivialMode (Table 9).
 */

#ifndef MEMO_CORE_MEMO_TABLE_HH
#define MEMO_CORE_MEMO_TABLE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/access_key.hh"
#include "core/config.hh"
#include "core/hooks.hh"
#include "core/op.hh"
#include "core/phase.hh"
#include "core/stats.hh"

namespace memo
{

/** One MEMO-TABLE attached to one class of computation unit. */
class MemoTable
{
  public:
    /**
     * @param operation the operation this table memoizes
     * @param config geometry and policy
     * @throws std::invalid_argument if config.validate() reports an
     *         error
     */
    MemoTable(Operation operation, const MemoConfig &config);

    /**
     * Present operands to the table (the parallel lookup of Figure 1).
     *
     * @param a_bits raw bits of the first operand
     * @param b_bits raw bits of the second operand (ignored for unary ops)
     * @return the raw bits of the memoized result on a hit, nullopt on a
     *         miss or when the operation bypasses the table
     */
    std::optional<uint64_t> lookup(uint64_t a_bits, uint64_t b_bits = 0);

    /**
     * Install a computed result after a miss (performed in parallel with
     * write-back; section 2.2). Trivial or untaggable operations are
     * silently skipped according to the configuration.
     */
    void update(uint64_t a_bits, uint64_t b_bits, uint64_t result_bits);

    /**
     * Convenience: lookup, and on a miss invoke @p compute and install
     * its result.
     *
     * @param compute callable giving the raw result bits
     * @param hit optional out-param set to whether the lookup hit
     * @return the operation result (from the table or from compute)
     */
    template <typename Compute>
    uint64_t
    access(uint64_t a_bits, uint64_t b_bits, Compute &&compute,
           bool *hit = nullptr)
    {
        if (auto v = lookup(a_bits, b_bits)) {
            if (hit)
                *hit = true;
            return *v;
        }
        uint64_t r = compute();
        update(a_bits, b_bits, r);
        if (hit)
            *hit = false;
        return r;
    }

    /**
     * Batched replay probe: for each of the @p n accesses, perform
     * lookup(a_bits[i], b_bits[i]) and, on a miss, update() with
     * result_bits[i] — the replay hot loop.
     *
     * lookup(), update() and this loop run the same access step, so
     * the result is exactly that of the scalar calls: the same
     * statistics, entry states, LRU tick sequence, replacement RNG
     * draws, phase rows and hook events. The loop keeps the decoded
     * mode and the counters in registers for the whole block; it is
     * compiled once with and once without the hooks observer, so a
     * detached table pays nothing for events.
     */
    void probeBlock(const uint64_t *a_bits, const uint64_t *b_bits,
                    const uint64_t *result_bits, size_t n);

    /**
     * The key pass of keyed replay (core/access_key.hh): classify
     * each of the @p n accesses of an @p op column as a table under
     * the default trivial policy (NonTrivialOnly, basic set) and with
     * full-value tags does, and key it. The classification is the
     * access step's own (the helper locate() calls), so an access is
     * trivial here exactly when such a table bypasses it, and two
     * accesses share an id exactly when their canonical tags match.
     * @throws std::invalid_argument unless @p op is IntMul, FpMul or
     *         FpDiv, or when @p n does not fit a 32-bit id
     */
    static AccessKeys keyAccesses(Operation op, const uint64_t *a_bits,
                                  const uint64_t *b_bits, size_t n);

    /**
     * Whether replayKeyed() can replay @p n accesses of this table's
     * operation exactly: full-value tags, the default trivial policy,
     * LRU or FIFO, a finite table of at most 8 ways whose index bits
     * the key fields hold, no hooks, phase accumulator or parity, no
     * valid entry (fresh or flushed), and @p n below the 32-bit tick
     * range.
     */
    bool keyedReplayable(size_t n) const;

    /**
     * Keyed replay: the same n accesses probeBlock(a_bits, b_bits,
     * result_bits, n) performs, driven by their keys from
     * keyAccesses(). A set holds one 32-bit id and one 32-bit tick
     * per way, and a 4-lane compare finds the hit way and the first
     * free way (two compares for 8 ways). The call leaves the table
     * exactly as probeBlock() would: statistics, valid entries, tags,
     * values, ticks and the clock. Requires keyedReplayable(n).
     */
    void replayKeyed(const AccessKey *keys, const uint64_t *a_bits,
                     const uint64_t *b_bits, const uint64_t *result_bits,
                     size_t n);

    /**
     * Fault-injection hook: flip bit @p bit of the stored value of
     * entry (@p set, @p way). With parityProtected the corruption is
     * detected on the next hit (a parity miss); without it the wrong
     * value is returned silently (Faults.UnprotectedFlipSilentlyCorrupts).
     * @return false when the entry is invalid.
     * @throws std::out_of_range for an infinite table or when @p set,
     *         @p way or @p bit is out of range, in every build type
     */
    bool injectBitFlip(unsigned set, unsigned way, unsigned bit);

    /** Invalidate all entries and zero the statistics. */
    void reset();

    /** Invalidate all entries but keep the statistics. */
    void flush();

    const MemoStats &stats() const { return stats_; }   //!< Access counters.
    const MemoConfig &config() const { return cfg; }    //!< Geometry/policy.
    Operation operation() const { return op; }          //!< Memoized op class.

    /**
     * Attach (or with nullptr detach) a transaction observer; every
     * hit/miss/insert/evict/trivial/parity event is reported to it.
     * The observer is borrowed, not owned, and must outlive the table
     * or be detached first. probeBlock() keeps its batched loop with
     * an observer attached. When detached, probeBlock() pays one null
     * test per block and lookup()/update() one per event.
     */
    void setHooks(TableHooks *hooks) { hooks_ = hooks; }

    /** The currently attached observer, or nullptr. */
    TableHooks *hooks() const { return hooks_; }

    /**
     * Attach (or with nullptr detach) a phase accumulator; the
     * table then closes one PhaseWindow row into it per
     * @ref PhaseAccum::window accesses (see core/phase.hh for the
     * boundary rule). The accumulator is borrowed, not owned, and is
     * re-based at the current access stamp on attach. probeBlock()
     * splits each block into segments that end at window boundaries,
     * so its per-access path carries no phase work. Costs one null
     * test per block (per lookup() call) when detached.
     */
    void
    setPhaseAccum(PhaseAccum *accum)
    {
        phase_ = accum;
        if (phase_) {
            phase_->flushedThrough = accessStamp();
            phase_->last = stats_;
        }
    }

    /** The currently attached phase accumulator, or nullptr. */
    PhaseAccum *phaseAccum() const { return phase_; }

    /**
     * Close the trailing window into the attached accumulator: first
     * a pending exactly-full window if the stream stopped on a
     * boundary (closure is lazy, at the next access's start), else
     * one partial row covering the accesses since the last close.
     * No-op when detached or when no access has happened since the
     * last close. Call once after replay, before reading rows.
     */
    void finalizePhases();

    /**
     * Monotone access counter (lookups + trivial bypasses so far),
     * used as the event stamp reported to TableHooks.
     */
    uint64_t accessStamp() const
    {
        return stats_.lookups + stats_.trivialBypassed;
    }

    /** Number of currently valid entries (finite tables). */
    unsigned validEntries() const;

  private:
    struct Entry
    {
        bool valid = false;
        /** Stored parity over tags and value. Written and read only
         *  on parityProtected tables; unprotected ones never pay for
         *  it. */
        bool parity = false;
        uint64_t tagA = 0;
        uint64_t tagB = 0;
        uint64_t value = 0;
        int8_t delta = 0;   //!< exponent adjustment (MantissaOnly mode)
        uint64_t tick = 0;  //!< LRU/FIFO ordering
    };

    /** Key of the infinite (fully associative, unbounded) table. */
    struct InfKey
    {
        uint64_t a;
        uint64_t b;
        bool operator==(const InfKey &) const = default;
    };

    struct InfKeyHash
    {
        size_t
        operator()(const InfKey &k) const
        {
            uint64_t h = k.a * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 32;
            h += k.b * 0xc2b2ae3d27d4eb4fULL;
            h ^= h >> 29;
            return static_cast<size_t>(h);
        }
    };

    struct InfValue
    {
        uint64_t value;
        int8_t delta;
    };

    /** The set-index hash of an access (arith/hash.hh). */
    enum class IndexHash : uint8_t
    {
        None, //!< one set (or the infinite table)
        Int,
        FpUnary,
        FpSum,
        FpXor,
    };

    /**
     * The configuration decisions the access step branches on,
     * decoded once at construction. probeBlock() copies them into
     * registers for the whole block.
     */
    struct Mode
    {
        Operation op;
        IndexHash hash;
        unsigned indexBits;
        unsigned ways;
        bool filterTrivial; //!< trivial ops bypass the table or hit
        bool bypassTrivial; //!< ... bypass it (TrivialMode::NonTrivialOnly)
        bool extTrivial;    //!< detect the extended trivial set
        bool mantissa;      //!< mantissa-only tags (fp mul/div/sqrt only)
        bool unary;
        bool lru;
        bool random;
        bool parity;
        bool infinite;
    };

    /** One access located in the table: the result of locate(). */
    struct Access
    {
        enum Kind : uint8_t
        {
            Trivial,    //!< the trivial detector answers
            Untaggable, //!< no tag under the tag mode: always a miss
            Tagged,     //!< looked up by tag
        };
        Kind kind;
        uint64_t a, b;          //!< operand bits
        uint64_t index;         //!< set index (0 for the infinite table)
        uint64_t trivialResult; //!< Trivial: the detector's result
        uint64_t tagA, tagB;    //!< Tagged; canonical order if commutable
        Entry *set;             //!< Tagged, finite: the set's first way
        Entry *match;           //!< Tagged, finite: matching way or null
        InfValue *inf;          //!< Tagged, infinite: match or null
    };

    /**
     * The counters an access step updates: stats_ and tick for the
     * scalar calls, block-local copies inside probeBlock(). An event's
     * stamp is stampBase plus the accesses counted in stats, which is
     * accessStamp() on both paths.
     */
    struct Tally
    {
        MemoStats &stats;
        uint64_t &tick;
        uint64_t stampBase;
    };

    /** Decode @p config's access-step decisions for @p operation. */
    static Mode modeOf(Operation operation, const MemoConfig &config,
                       unsigned index_bits);

    /** Trivial-op handling at lookup time; sets result on detection. */
    static bool checkTrivial(const Mode &m, uint64_t a_bits,
                             uint64_t b_bits, uint64_t &result);

    /**
     * The classify step, shared by locate() and the key pass: trivial
     * pre-filter, taggability, tags and canonical tag order of the
     * access in @p x (operands x.a, x.b). Sets x.kind, and
     * x.trivialResult or x.tagA/x.tagB.
     */
    static void classify(const Mode &m, Access &x);

    /**
     * The locate step: set index, classify, and the way match.
     * Counts nothing and changes no state.
     */
    Access locate(const Mode &m, uint64_t a_bits, uint64_t b_bits);

    /**
     * The lookup accounting step: statistics, LRU touch, parity
     * abort, mantissa reconstruction and events. A parity abort
     * invalidates the way and clears @p x's match.
     * @return true on a hit, with the result in @p result
     */
    template <bool Hooked>
    bool account(const Mode &m, Access &x, Tally &c, uint64_t &result);

    /**
     * The install step for a Tagged access: payload, rewrite of a
     * matching way or victim choice, statistics and events.
     */
    template <bool Hooked>
    void install(const Mode &m, const Access &x, uint64_t result_bits,
                 Tally &c);

    /** The way install() replaces: the first free one, else the
     *  policy's choice (the RNG is drawn only for a full set). */
    Entry &victimEntry(const Mode &m, Entry *set);

    /** probeBlock()'s loop; Hooked selects the observer instantiation. */
    template <bool Hooked>
    void probeLoop(const uint64_t *a_bits, const uint64_t *b_bits,
                   const uint64_t *result_bits, size_t n);

    /**
     * Reconstruct the full result from a mantissa-mode entry.
     * @return false when the reconstructed exponent is unrepresentable.
     */
    bool reconstruct(uint64_t a_bits, uint64_t b_bits, uint64_t frac,
                     int delta, uint64_t &result) const;

    /**
     * Derive the mantissa-mode payload (result fraction and exponent
     * delta). @return false when the result cannot be represented.
     */
    bool derivePayload(uint64_t a_bits, uint64_t b_bits,
                       uint64_t result_bits, uint64_t &frac,
                       int8_t &delta) const;

    /**
     * Start a phase segment at the current access stamp: close the
     * open window if the access about to start sits on its boundary
     * (the lazy rule of core/phase.hh). Requires stats_ to be
     * current — probeBlock() folds its register-local counters back
     * before calling.
     * @return the accesses that may run before the next boundary
     */
    uint64_t phaseSegment();

    /** Close the window ending at the current access stamp into the
     *  attached accumulator (cold path, once per window). */
    void phaseFlush();

    /** Stamp at which the open window closes (fault-adjustable). */
    uint64_t phaseNextBoundary() const;

    /** Report one transaction to the attached observer, if any. */
    template <bool Hooked>
    void
    emit(TableEventKind kind, uint64_t set, const Tally &c)
    {
        if (Hooked && hooks_)
            hooks_->onTableEvent(op, kind, static_cast<uint32_t>(set),
                                 c.stampBase + c.stats.lookups +
                                     c.stats.trivialBypassed);
    }

    Operation op;
    MemoConfig cfg;
    Mode mode_;
    std::vector<Entry> entries; //!< sets * ways, set-major
    std::unordered_map<InfKey, InfValue, InfKeyHash> infTable;
    MemoStats stats_;
    TableHooks *hooks_ = nullptr;
    PhaseAccum *phase_ = nullptr;
    uint64_t tick = 0;
    uint64_t rng = 0x2545f4914f6cdd1dULL;
    /** No entry installed since construction, reset() or flush(). */
    bool empty_ = true;
};

/**
 * Test-only fault injection: when enabled, MemoTable::replayKeyed
 * evicts the way after the policy's victim in a full set. The
 * keyed-replay fuzz kind's mutation self-test turns this on to prove
 * its probeBlock oracle has teeth. Never enable outside tests.
 */
void setKeyedVictimFault(bool enabled);

} // namespace memo

#endif // MEMO_CORE_MEMO_TABLE_HH
