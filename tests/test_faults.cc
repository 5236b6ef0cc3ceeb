/**
 * @file
 * Tests for fault injection and parity protection (core/memo_table).
 */

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <stdexcept>

#include "arith/fp.hh"
#include "core/memo_table.hh"

namespace memo
{
namespace
{

/** Find the (set, way) holding a known single entry. */
bool
findEntryPosition(MemoTable &t, const MemoConfig &cfg, unsigned &set,
                  unsigned &way)
{
    for (set = 0; set < cfg.sets(); set++)
        for (way = 0; way < cfg.ways; way++)
            if (t.injectBitFlip(set, way, 0)) {
                // Undo the probe flip.
                t.injectBitFlip(set, way, 0);
                return true;
            }
    return false;
}

TEST(Faults, UnprotectedFlipSilentlyCorrupts)
{
    MemoConfig cfg;
    MemoTable t(Operation::FpDiv, cfg);
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));

    unsigned set, way;
    ASSERT_TRUE(findEntryPosition(t, cfg, set, way));
    ASSERT_TRUE(t.injectBitFlip(set, way, 7));

    auto hit = t.lookup(fpBits(10.0), fpBits(4.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_NE(*hit, fpBits(2.5)); // wrong value, silently returned
    EXPECT_EQ(t.stats().parityMisses, 0u);
}

TEST(Faults, ParityDetectsFlip)
{
    MemoConfig cfg;
    cfg.parityProtected = true;
    MemoTable t(Operation::FpDiv, cfg);
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));

    unsigned set, way;
    ASSERT_TRUE(findEntryPosition(t, cfg, set, way));
    ASSERT_TRUE(t.injectBitFlip(set, way, 7));

    // The corrupted entry is detected, dropped and missed.
    EXPECT_FALSE(t.lookup(fpBits(10.0), fpBits(4.0)).has_value());
    EXPECT_EQ(t.stats().parityMisses, 1u);
    // Re-learn and hit correctly afterwards.
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));
    auto hit = t.lookup(fpBits(10.0), fpBits(4.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(2.5));
}

TEST(Faults, ParityIntactEntriesUnaffected)
{
    MemoConfig cfg;
    cfg.parityProtected = true;
    MemoTable t(Operation::FpDiv, cfg);
    for (int i = 2; i < 10; i++) {
        double a = 1.0 + i * 0.25;
        t.update(fpBits(a), fpBits(4.0), fpBits(a / 4.0));
    }
    for (int i = 2; i < 10; i++) {
        double a = 1.0 + i * 0.25;
        auto hit = t.lookup(fpBits(a), fpBits(4.0));
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(fpFromBits(*hit), a / 4.0);
    }
    EXPECT_EQ(t.stats().parityMisses, 0u);
}

TEST(Faults, ParityCoversRewrittenEntries)
{
    // Every install path of a protected table writes the parity bit:
    // a new entry, a rewrite, and a rewrite reached through the
    // swapped operand order. The values make a skipped write visible:
    // the new entry's parity is odd (a fresh way holds false), and r1
    // and r2 differ in one bit.
    MemoConfig cfg;
    cfg.parityProtected = true;
    MemoTable t(Operation::FpMul, cfg);
    uint64_t a = fpBits(1.5), b = fpBits(10.0);
    uint64_t r1 = fpBits(15.0), r2 = r1 ^ 1;
    ASSERT_EQ(std::popcount(a ^ b ^ r1) & 1, 1);

    t.update(a, b, r1);
    EXPECT_EQ(t.lookup(a, b), std::optional<uint64_t>(r1));
    t.update(a, b, r2);
    EXPECT_EQ(t.lookup(a, b), std::optional<uint64_t>(r2));
    t.update(b, a, r2);
    EXPECT_EQ(t.lookup(a, b), std::optional<uint64_t>(r2));
    EXPECT_EQ(t.stats().insertions, 1u);
    EXPECT_EQ(t.stats().parityMisses, 0u);

    // A flipped value bit in the rewritten entry is still caught.
    unsigned set, way;
    ASSERT_TRUE(findEntryPosition(t, cfg, set, way));
    ASSERT_TRUE(t.injectBitFlip(set, way, 3));
    EXPECT_FALSE(t.lookup(a, b).has_value());
    EXPECT_EQ(t.stats().parityMisses, 1u);
}

TEST(Faults, InjectIntoInvalidEntryFails)
{
    MemoConfig cfg;
    MemoTable t(Operation::FpDiv, cfg);
    EXPECT_FALSE(t.injectBitFlip(0, 0, 5));
}

TEST(Faults, BitFlipOutOfRangeThrows)
{
    // Checked in every build type: an out-of-range call would write
    // past the entry array, and an infinite table has no (set, way).
    MemoConfig cfg; // 32 entries, 4 ways: 8 sets
    MemoTable t(Operation::FpMul, cfg);
    EXPECT_THROW(t.injectBitFlip(8, 0, 0), std::out_of_range);
    EXPECT_THROW(t.injectBitFlip(0, 4, 0), std::out_of_range);
    EXPECT_THROW(t.injectBitFlip(0, 0, 64), std::out_of_range);
    EXPECT_FALSE(t.injectBitFlip(7, 3, 63)); // the last valid position

    MemoConfig inf = cfg;
    inf.infinite = true;
    MemoTable ti(Operation::FpMul, inf);
    EXPECT_THROW(ti.injectBitFlip(0, 0, 0), std::out_of_range);
}

} // anonymous namespace
} // namespace memo
