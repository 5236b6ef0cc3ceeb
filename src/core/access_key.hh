/**
 * @file
 * The key stream of keyed replay: one 8-byte key per access of an
 * IntMul, FpMul or FpDiv operand column.
 *
 * Everything the access step decides before it touches a set is the
 * same for every table geometry: the trivial filter, the tags and
 * their canonical order. The key pass (MemoTable::keyAccesses) makes
 * those decisions once per trace and class, and gives each distinct
 * canonical (tagA, tagB) pair a dense 32-bit id, so two accesses
 * match in a table exactly when their ids are equal. Next to the id
 * it keeps the operand fields the set index is computed from, which
 * is all a table of any size then needs (MemoTable::replayKeyed).
 */

#ifndef MEMO_CORE_ACCESS_KEY_HH
#define MEMO_CORE_ACCESS_KEY_HH

#include <cstdint>
#include <vector>

namespace memo
{

/** One access of a key stream. */
struct AccessKey
{
    /** Dense id of the canonical tag pair, or kTrivialKey. */
    uint32_t id;
    /**
     * The set index's source fields: the low 32 bits of a ^ b for
     * IntMul; for fp, the top 16 mantissa bits of operand a above
     * those of operand b. Zero for a trivial access.
     */
    uint32_t fields;
};

/** The id of an access the default trivial filter bypasses. */
constexpr uint32_t kTrivialKey = ~uint32_t{0};

/** Index bits the stored fields can feed: every bit of a ^ b's low
 *  word for IntMul, the 16 stored mantissa bits for fp. */
constexpr unsigned kKeyIntIndexBits = 32;
constexpr unsigned kKeyFpIndexBits = 16; //!< see kKeyIntIndexBits

/** The key stream of one operand column, in column order. */
using AccessKeys = std::vector<AccessKey>;

} // namespace memo

#endif // MEMO_CORE_ACCESS_KEY_HH
