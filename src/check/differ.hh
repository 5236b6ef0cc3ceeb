/**
 * @file
 * Differential comparison of a real MEMO-TABLE against the exact
 * oracle (oracle.hh).
 *
 * The checker owns one real table and one OracleTable, feeds both the
 * same access stream, and verifies after every access:
 *
 *  1. transparency — a real hit returns bit-identical results to the
 *     computation it aborts (the driver supplies the true result);
 *  2. containment — real hits are a subset of oracle hits: the finite
 *     table may forget (capacity and conflict misses are legal) but
 *     may never "know" a pair the unbounded same-semantics model never
 *     hit (that is a tag-comparison or aliasing bug);
 *  3. equivalence — an infinite-mode real table must agree with the
 *     oracle on every hit/miss decision;
 *  4. conservation — allHits() + misses == lookups at every step.
 *
 * step() returns a description of the first violated invariant, or
 * nullopt. The checker is deterministic: replaying the same stream
 * reproduces the same verdicts, which the fuzzer's shrinker relies on.
 */

#ifndef MEMO_CHECK_DIFFER_HH
#define MEMO_CHECK_DIFFER_HH

#include <cstdint>
#include <optional>
#include <string>

#include "check/oracle.hh"
#include "core/memo_table.hh"

namespace memo::check
{

/** Sanity of one stats block: allHits + misses == lookups. */
std::optional<std::string> statsConserved(const MemoStats &s,
                                          const char *who);

/** MemoTable (any MemoConfig, including infinite) vs the oracle. */
class MemoTableChecker
{
  public:
    /**
     * @param inject_tag_bug mutation hook for the self-test: the real
     *        table sees operand A with its top 16 bits forced to zero
     *        (a broken tag comparator), the oracle sees the true
     *        operand. A correct harness MUST flag this configuration;
     *        see fuzz.hh mutationSelfTest and docs/TESTING.md.
     */
    MemoTableChecker(Operation op, const MemoConfig &cfg,
                     bool inject_tag_bug = false);

    /**
     * Present one access to both models and verify the invariants.
     *
     * @param true_result the bit pattern the computation unit produces
     *        for these operands
     * @return the first violated invariant, or nullopt
     */
    std::optional<std::string> step(uint64_t a_bits, uint64_t b_bits,
                                    uint64_t true_result);

    const MemoTable &real() const { return table; }
    const OracleTable &oracle() const { return shadow; }

  private:
    MemoTable table;
    OracleTable shadow;
    bool injectTagBug;
    uint64_t steps = 0;
};

} // namespace memo::check

#endif // MEMO_CHECK_DIFFER_HH
