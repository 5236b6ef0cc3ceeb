/**
 * @file
 * Tests for the comparison baselines: the Sodani/Sohi Reuse Buffer,
 * the Oberman/Flynn reciprocal cache, and the shared multi-ported
 * MEMO-TABLE of section 2.3.
 */

#include <gtest/gtest.h>

#include "arith/fp.hh"
#include "core/recip_cache.hh"
#include "core/reuse_buffer.hh"
#include "core/shared_table.hh"

namespace memo
{
namespace
{

TEST(ReuseBuffer, HitNeedsMatchingPcAndOperands)
{
    ReuseBuffer rb(32, 4);
    rb.update(0x100, fpBits(2.0), fpBits(3.0), fpBits(6.0));

    auto hit = rb.lookup(0x100, fpBits(2.0), fpBits(3.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(6.0));

    // Same operands at a different PC miss (unlike a MEMO-TABLE).
    EXPECT_FALSE(rb.lookup(0x104, fpBits(2.0), fpBits(3.0)).has_value());
    // Same PC with different operands misses.
    EXPECT_FALSE(rb.lookup(0x100, fpBits(2.0), fpBits(4.0)).has_value());
}

TEST(ReuseBuffer, SamePcNewOperandsInsertSeparately)
{
    ReuseBuffer rb(32, 4);
    rb.update(0x100, 1, 2, 3);
    rb.update(0x100, 4, 5, 6);
    EXPECT_TRUE(rb.lookup(0x100, 1, 2).has_value());
    EXPECT_TRUE(rb.lookup(0x100, 4, 5).has_value());
}

TEST(ReuseBuffer, LruEviction)
{
    ReuseBuffer rb(2, 2); // one set of two ways
    rb.update(0, 1, 1, 1);
    rb.update(0, 2, 2, 2);
    rb.lookup(0, 1, 1); // refresh
    rb.update(0, 3, 3, 3);
    EXPECT_TRUE(rb.lookup(0, 1, 1).has_value());
    EXPECT_FALSE(rb.lookup(0, 2, 2).has_value());
}

TEST(ReuseBuffer, StatsAccounting)
{
    ReuseBuffer rb(32, 4);
    rb.lookup(1, 2, 3);
    rb.update(1, 2, 3, 4);
    rb.lookup(1, 2, 3);
    EXPECT_EQ(rb.stats().lookups, 2u);
    EXPECT_EQ(rb.stats().hits, 1u);
    EXPECT_EQ(rb.stats().misses, 1u);
}

TEST(ReuseBuffer, UnrolledLoopSplitsEntries)
{
    // The paper's point: after unrolling, the same computation sits at
    // several PCs, so a PC-indexed buffer learns it several times
    // while a MEMO-TABLE would hit immediately.
    ReuseBuffer rb(32, 4);
    uint64_t pcs[4] = {0x10, 0x14, 0x18, 0x1c};
    unsigned misses = 0;
    for (uint64_t pc : pcs) {
        if (!rb.lookup(pc, fpBits(2.0), fpBits(3.0)))
            misses++;
        rb.update(pc, fpBits(2.0), fpBits(3.0), fpBits(6.0));
    }
    EXPECT_EQ(misses, 4u);
}

TEST(RecipCache, HitOnRepeatedDivisor)
{
    ReciprocalCache rc(32, 4);
    double b = 3.0;
    EXPECT_FALSE(rc.lookup(fpBits(b)).has_value());
    rc.update(fpBits(b), fpBits(1.0 / b));
    auto hit = rc.lookup(fpBits(b));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(fpFromBits(*hit), 1.0 / 3.0);
}

TEST(RecipCache, CoversAnyDividend)
{
    // One learned divisor serves every numerator — the structural
    // advantage over operand-pair tables.
    ReciprocalCache rc(32, 4);
    rc.update(fpBits(7.0), fpBits(1.0 / 7.0));
    for (double a : {1.0, 2.0, 3.5, 99.0})
        EXPECT_TRUE(rc.lookup(fpBits(7.0)).has_value()) << a;
    EXPECT_EQ(rc.stats().hits, 4u);
}

TEST(RecipCache, EvictionAndUpdate)
{
    ReciprocalCache rc(2, 2);
    rc.update(fpBits(3.0), fpBits(1.0 / 3.0));
    rc.update(fpBits(3.0), fpBits(1.0 / 3.0)); // rewrite, no new entry
    EXPECT_EQ(rc.stats().insertions, 1u);
}

TEST(SharedTable, CrossUnitHitsCounted)
{
    MemoConfig cfg;
    SharedMemoTable st(Operation::FpDiv, cfg, 2);

    // Unit 0 computes; unit 1 reuses its work (section 2.3).
    EXPECT_FALSE(st.lookup(0, 1, fpBits(10.0), fpBits(4.0)).has_value());
    st.update(0, fpBits(10.0), fpBits(4.0), fpBits(2.5));
    auto hit = st.lookup(1, 2, fpBits(10.0), fpBits(4.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(st.crossUnitHits(), 1u);

    // The same unit hitting its own entry is not a cross-unit hit.
    st.lookup(0, 3, fpBits(10.0), fpBits(4.0));
    EXPECT_EQ(st.crossUnitHits(), 1u);
}

TEST(SharedTable, PortConflictsForceMisses)
{
    MemoConfig cfg;
    SharedMemoTable st(Operation::FpDiv, cfg, 1);
    st.update(0, fpBits(10.0), fpBits(4.0), fpBits(2.5));

    // Two lookups in the same cycle with one port: second rejected.
    EXPECT_TRUE(st.lookup(0, 7, fpBits(10.0), fpBits(4.0)).has_value());
    EXPECT_FALSE(st.lookup(1, 7, fpBits(10.0), fpBits(4.0)).has_value());
    EXPECT_EQ(st.portConflicts(), 1u);

    // Next cycle the port is free again.
    EXPECT_TRUE(st.lookup(1, 8, fpBits(10.0), fpBits(4.0)).has_value());
}

TEST(SharedTable, CommutativeWriterTracking)
{
    MemoConfig cfg;
    SharedMemoTable st(Operation::FpMul, cfg, 2);
    st.update(0, fpBits(3.0), fpBits(5.0), fpBits(15.0));
    // Reversed operand order must still attribute to writer 0.
    auto hit = st.lookup(1, 1, fpBits(5.0), fpBits(3.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(st.crossUnitHits(), 1u);
}

TEST(SharedTable, BothNaNPairsKeepTheirWriters)
{
    // Two NaN operands do not commute (the product carries the first
    // payload), so (n1,n2) and (n2,n1) are separate entries with
    // separate writers: unit 0 hitting its own entry is not a
    // cross-unit hit.
    MemoConfig cfg;
    SharedMemoTable st(Operation::FpMul, cfg, 2);
    uint64_t n1 = (0x7ffULL << 52) | (uint64_t{1} << 51) | 0x111;
    uint64_t n2 = (0x7ffULL << 52) | (uint64_t{1} << 51) | 0x222;
    st.update(0, n1, n2, n1);
    st.update(1, n2, n1, n2);
    auto hit = st.lookup(0, 5, n1, n2);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, n1);
    EXPECT_EQ(st.crossUnitHits(), 0u);
}

TEST(SharedTable, ResetClearsAll)
{
    MemoConfig cfg;
    SharedMemoTable st(Operation::FpDiv, cfg, 1);
    st.update(0, fpBits(10.0), fpBits(4.0), fpBits(2.5));
    st.lookup(1, 1, fpBits(10.0), fpBits(4.0));
    st.reset();
    EXPECT_EQ(st.crossUnitHits(), 0u);
    EXPECT_EQ(st.stats().lookups, 0u);
    EXPECT_FALSE(st.lookup(0, 2, fpBits(10.0), fpBits(4.0)).has_value());
}

} // anonymous namespace
} // namespace memo
