/**
 * @file
 * MEMO-TABLE configuration.
 *
 * All design alternatives studied in the paper are expressed as fields
 * of MemoConfig so that experiment sweeps are data driven:
 *  - size and associativity (Figures 3 and 4),
 *  - full-value vs mantissa-only tags (Table 10),
 *  - trivial-operation policy (Table 9),
 *  - an "infinitely" large fully associative mode (Tables 5-7).
 */

#ifndef MEMO_CORE_CONFIG_HH
#define MEMO_CORE_CONFIG_HH

#include <string>

namespace memo
{

/** What the tag of a floating point entry is made of. */
enum class TagMode
{
    /** Tags are the full 64-bit operand values (the paper's default). */
    FullValue,
    /**
     * Tags are only the operand mantissas; the table reconstructs the
     * result's sign and exponent from the operand fields plus a stored
     * normalization delta. Raises hit ratios slightly (Table 10) at the
     * cost of extra exponent hardware.
     */
    MantissaOnly,
};

/** How trivial operations (x*0, x*1, x/1, 0/x) are treated. */
enum class TrivialMode
{
    /** Everything is forwarded to the table ("all" column of Table 9). */
    CacheAll,
    /**
     * Trivial operations bypass the table and are excluded from its
     * statistics ("non" column; the default used in Tables 5-8, 10-13).
     */
    NonTrivialOnly,
    /**
     * A trivial-op detector is integrated into the table: trivial ops
     * count as hits and are not stored ("intgr" column of Table 9).
     */
    Integrated,
};

/** Replacement policy within a set. */
enum class Replacement
{
    Lru,    //!< evict the least recently hit way (default)
    Fifo,   //!< evict the oldest-inserted way
    Random, //!< evict a pseudo-randomly chosen way (xorshift)
};

/** Set-index hash for floating point operands. */
enum class HashScheme
{
    /**
     * The paper's literal scheme: XOR of the top mantissa bits of both
     * operands. Degenerates to set 0 for squares (x*x).
     */
    PaperXor,
    /**
     * Additive combination of the top mantissa fields: symmetric and
     * square-safe (default; `memo-sim --hash xor|add` compares the
     * two, and HashScheme.PaperXorCollapsesSquares pins the collapse).
     */
    Additive,
};

/** Full configuration of one MEMO-TABLE. */
struct MemoConfig
{
    /** Total number of entries (must be a power of two, and >= ways). */
    unsigned entries = 32;
    /** Set associativity (power of two). entries/ways sets. */
    unsigned ways = 4;
    /**
     * Model an "infinitely" large fully associative table (no capacity
     * or conflict misses), the paper's upper bound columns.
     */
    bool infinite = false;
    TagMode tagMode = TagMode::FullValue;             //!< Tag width (Table 10).
    TrivialMode trivialMode = TrivialMode::NonTrivialOnly; //!< Trivial-op policy (Table 9).
    Replacement replacement = Replacement::Lru;       //!< In-set victim choice.
    HashScheme hashScheme = HashScheme::Additive;     //!< Fp set-index hash.
    /**
     * Detect the extended (Richardson-style) trivial set in addition to
     * the paper's basic one. Off in all paper reproductions.
     */
    bool extendedTrivial = false;
    /**
     * Protect each entry with a parity bit over tags and value: a
     * soft-error bit flip then turns into a detected miss instead of
     * a silently wrong result (tests/test_faults.cc).
     */
    bool parityProtected = false;

    /** Number of sets. */
    unsigned sets() const { return entries / ways; }

    /** Validate invariants; returns an error message or empty string. */
    std::string validate() const;

    /** Short human-readable description, e.g. "32/4 full non". */
    std::string describe() const;
};

} // namespace memo

#endif // MEMO_CORE_CONFIG_HH
