/**
 * @file
 * Unit tests for the MEMO-TABLE core behaviour: lookup/update, set
 * geometry, replacement, commutativity, and the infinite mode.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "arith/fp.hh"
#include "core/memo_table.hh"

namespace memo
{
namespace
{

MemoConfig
cfg32()
{
    return MemoConfig{}; // 32 entries, 4-way, the paper's default
}

TEST(MemoTable, MissThenHit)
{
    MemoTable t(Operation::FpDiv, cfg32());
    uint64_t a = fpBits(10.0), b = fpBits(4.0), r = fpBits(2.5);

    EXPECT_FALSE(t.lookup(a, b).has_value());
    t.update(a, b, r);
    auto hit = t.lookup(a, b);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, r);

    EXPECT_EQ(t.stats().lookups, 2u);
    EXPECT_EQ(t.stats().hits, 1u);
    EXPECT_EQ(t.stats().misses, 1u);
    EXPECT_EQ(t.stats().insertions, 1u);
}

TEST(MemoTable, DifferentOperandsMiss)
{
    MemoTable t(Operation::FpDiv, cfg32());
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));
    EXPECT_FALSE(t.lookup(fpBits(10.0), fpBits(5.0)).has_value());
    EXPECT_FALSE(t.lookup(fpBits(11.0), fpBits(4.0)).has_value());
}

TEST(MemoTable, DivisionIsNotCommutative)
{
    MemoTable t(Operation::FpDiv, cfg32());
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));
    EXPECT_FALSE(t.lookup(fpBits(4.0), fpBits(10.0)).has_value());
}

TEST(MemoTable, MultiplicationIsCommutative)
{
    // Section 2.2: commutative units compare both operand orders.
    MemoTable t(Operation::FpMul, cfg32());
    t.update(fpBits(3.0), fpBits(7.0), fpBits(21.0));
    auto hit = t.lookup(fpBits(7.0), fpBits(3.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(21.0));
}

TEST(MemoTable, IntMulCommutative)
{
    MemoTable t(Operation::IntMul, cfg32());
    t.update(6, 7, 42);
    auto hit = t.lookup(7, 6);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 42u);
}

TEST(MemoTable, InvalidConfigThrows)
{
    // ways > entries leaves no sets; indexing would run off the table.
    MemoConfig cfg;
    cfg.entries = 2;
    cfg.ways = 4;
    EXPECT_THROW(MemoTable(Operation::FpMul, cfg), std::invalid_argument);
}

TEST(MemoTable, UnaryOperationIgnoresSecondOperand)
{
    MemoConfig cfg = cfg32();
    MemoTable t(Operation::FpSqrt, cfg);
    t.update(fpBits(9.0), 0, fpBits(3.0));
    auto hit = t.lookup(fpBits(9.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(3.0));
}

TEST(MemoTable, LruEvictionWithinSet)
{
    // Direct the accesses at one set by using a 4-entry fully
    // associative table (1 set of 4 ways).
    MemoConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    MemoTable t(Operation::FpDiv, cfg);

    double vals[5] = {3.0, 5.0, 7.0, 11.0, 13.0};
    for (double v : vals) {
        t.lookup(fpBits(v), fpBits(1.5));
        t.update(fpBits(v), fpBits(1.5), fpBits(v / 1.5));
    }
    // 3.0 was least recently used and must have been evicted.
    EXPECT_FALSE(t.lookup(fpBits(3.0), fpBits(1.5)).has_value());
    EXPECT_TRUE(t.lookup(fpBits(13.0), fpBits(1.5)).has_value());
    EXPECT_EQ(t.stats().evictions, 1u);
}

TEST(MemoTable, LruRefreshOnHit)
{
    MemoConfig cfg;
    cfg.entries = 2;
    cfg.ways = 2;
    MemoTable t(Operation::FpDiv, cfg);

    t.update(fpBits(3.0), fpBits(1.5), fpBits(2.0));
    t.update(fpBits(5.0), fpBits(1.5), fpBits(5.0 / 1.5));
    // Touch 3.0 so 5.0 becomes the LRU victim.
    EXPECT_TRUE(t.lookup(fpBits(3.0), fpBits(1.5)).has_value());
    t.update(fpBits(7.0), fpBits(1.5), fpBits(7.0 / 1.5));

    EXPECT_TRUE(t.lookup(fpBits(3.0), fpBits(1.5)).has_value());
    EXPECT_FALSE(t.lookup(fpBits(5.0), fpBits(1.5)).has_value());
}

TEST(MemoTable, FifoIgnoresHitRecency)
{
    MemoConfig cfg;
    cfg.entries = 2;
    cfg.ways = 2;
    cfg.replacement = Replacement::Fifo;
    MemoTable t(Operation::FpDiv, cfg);

    t.update(fpBits(3.0), fpBits(1.5), fpBits(2.0));
    t.update(fpBits(5.0), fpBits(1.5), fpBits(5.0 / 1.5));
    // A hit on 3.0 must NOT save it: it is still the oldest.
    EXPECT_TRUE(t.lookup(fpBits(3.0), fpBits(1.5)).has_value());
    t.update(fpBits(7.0), fpBits(1.5), fpBits(7.0 / 1.5));

    EXPECT_FALSE(t.lookup(fpBits(3.0), fpBits(1.5)).has_value());
    EXPECT_TRUE(t.lookup(fpBits(5.0), fpBits(1.5)).has_value());
}

/** Does a 1.5-divisor entry for @p v answer a lookup? */
bool
holds(MemoTable &t, double v)
{
    return t.lookup(fpBits(v), fpBits(1.5)).has_value();
}

void
insert(MemoTable &t, double v)
{
    t.update(fpBits(v), fpBits(1.5), fpBits(v / 1.5));
}

TEST(MemoTable, RandomReplacementFollowsXorshiftSeed)
{
    // One set of four ways. The RNG starts at 0x2545f4914f6cdd1d and
    // advances by xorshift64 (<<13, >>7, <<17) once per eviction; its
    // first four states mod 4 are 3, 0, 3, 2:
    //   0x7f6c280beaa8e3e7, 0xe47119871cf9abe0,
    //   0x35174a4158b8a0b7, 0x62ce1ffad85b1c36.
    MemoConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    cfg.replacement = Replacement::Random;
    MemoTable t(Operation::FpDiv, cfg);
    for (double v : {3.0, 5.0, 7.0, 11.0}) // fill ways 0..3
        insert(t, v);

    // way 3 (11) <- 13, way 0 (3) <- 17, way 3 (13) <- 19,
    // way 2 (7) <- 23. Lookups draw nothing.
    const double inserted[] = {13.0, 17.0, 19.0, 23.0};
    const double evicted[] = {11.0, 3.0, 13.0, 7.0};
    for (int i = 0; i < 4; i++) {
        insert(t, inserted[i]);
        EXPECT_FALSE(holds(t, evicted[i])) << "draw " << i;
        EXPECT_TRUE(holds(t, inserted[i])) << "draw " << i;
    }
    for (double v : {5.0, 17.0, 19.0, 23.0})
        EXPECT_TRUE(holds(t, v)) << v;
    EXPECT_EQ(t.stats().evictions, 4u);
    EXPECT_EQ(t.validEntries(), 4u);
}

TEST(MemoTable, FifoParityAbortReinstallsIntoFreedWay)
{
    // A parity abort on a full set frees the corrupted way; the
    // re-install takes it without an eviction and becomes the
    // newest entry, so FIFO evicts it last.
    MemoConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    cfg.replacement = Replacement::Fifo;
    cfg.parityProtected = true;
    MemoTable t(Operation::FpDiv, cfg);
    for (double v : {3.0, 5.0, 7.0, 11.0}) // ways 0..3, ticks 1..4
        insert(t, v);

    ASSERT_TRUE(t.injectBitFlip(0, 1, 0)); // corrupt 5.0's value
    EXPECT_FALSE(holds(t, 5.0));
    EXPECT_EQ(t.stats().parityMisses, 1u);
    EXPECT_EQ(t.validEntries(), 3u);
    insert(t, 5.0); // way 1, tick 5
    EXPECT_EQ(t.stats().evictions, 0u);
    auto hit = t.lookup(fpBits(5.0), fpBits(1.5));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(5.0 / 1.5));

    // Oldest first: 3 (tick 1), 7 (3), 11 (4), then the re-install.
    const double inserted[] = {13.0, 17.0, 19.0, 23.0};
    const double evicted[] = {3.0, 7.0, 11.0, 5.0};
    for (int i = 0; i < 4; i++) {
        insert(t, inserted[i]);
        EXPECT_FALSE(holds(t, evicted[i])) << "insert " << i;
    }
    for (double v : inserted)
        EXPECT_TRUE(holds(t, v)) << v;
    EXPECT_EQ(t.stats().evictions, 4u);
    EXPECT_EQ(t.stats().parityMisses, 1u);
}

TEST(MemoTable, InfiniteTableNeverEvicts)
{
    MemoConfig cfg;
    cfg.infinite = true;
    MemoTable t(Operation::FpMul, cfg);

    for (int i = 2; i < 2000; i++) {
        double a = i * 1.25;
        t.update(fpBits(a), fpBits(3.0), fpBits(a * 3.0));
    }
    for (int i = 2; i < 2000; i++) {
        double a = i * 1.25;
        auto hit = t.lookup(fpBits(a), fpBits(3.0));
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(*hit, fpBits(a * 3.0));
    }
    EXPECT_EQ(t.stats().evictions, 0u);
    EXPECT_EQ(t.validEntries(), 1998u);
}

TEST(MemoTable, InfiniteCommutative)
{
    MemoConfig cfg;
    cfg.infinite = true;
    MemoTable t(Operation::IntMul, cfg);
    t.update(6, 7, 42);
    EXPECT_TRUE(t.lookup(7, 6).has_value());
    // Same pair in either order occupies a single entry.
    t.update(7, 6, 42);
    EXPECT_EQ(t.validEntries(), 1u);
}

TEST(MemoTable, UpdateExistingEntryRewrites)
{
    MemoTable t(Operation::FpDiv, cfg32());
    uint64_t a = fpBits(10.0), b = fpBits(4.0);
    t.update(a, b, fpBits(2.5));
    t.update(a, b, fpBits(2.5));
    EXPECT_EQ(t.stats().insertions, 1u);
    EXPECT_EQ(t.validEntries(), 1u);
}

TEST(MemoTable, FlushKeepsStats)
{
    MemoTable t(Operation::FpDiv, cfg32());
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));
    t.lookup(fpBits(10.0), fpBits(4.0));
    t.flush();
    EXPECT_EQ(t.validEntries(), 0u);
    EXPECT_EQ(t.stats().hits, 1u);
    EXPECT_FALSE(t.lookup(fpBits(10.0), fpBits(4.0)).has_value());
}

TEST(MemoTable, ResetClearsEverything)
{
    MemoTable t(Operation::FpDiv, cfg32());
    t.update(fpBits(10.0), fpBits(4.0), fpBits(2.5));
    t.lookup(fpBits(10.0), fpBits(4.0));
    t.reset();
    EXPECT_EQ(t.validEntries(), 0u);
    EXPECT_EQ(t.stats().lookups, 0u);
}

TEST(MemoTable, AccessHelper)
{
    MemoTable t(Operation::FpMul, cfg32());
    bool hit = true;
    uint64_t r = t.access(fpBits(3.0), fpBits(5.0),
                          [] { return fpBits(15.0); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(r, fpBits(15.0));

    int computed = 0;
    r = t.access(fpBits(3.0), fpBits(5.0), [&] {
        computed++;
        return fpBits(15.0);
    }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(computed, 0);
    EXPECT_EQ(r, fpBits(15.0));
}

TEST(MemoTable, StatsConsistency)
{
    MemoTable t(Operation::FpMul, cfg32());
    for (int i = 2; i < 300; i++) {
        double a = 1.0 + (i % 17) * 0.25;
        double b = 1.0 + (i % 5) * 0.5;
        if (!t.lookup(fpBits(a), fpBits(b)))
            t.update(fpBits(a), fpBits(b), fpBits(a * b));
    }
    const MemoStats &s = t.stats();
    EXPECT_EQ(s.lookups, s.hits + s.misses);
    EXPECT_LE(t.validEntries(), 32u);
    EXPECT_LE(s.evictions, s.insertions);
}

// --- floating point edge operands -----------------------------------
// NaNs, denormals and signed zeros are where a value-identity cache
// can silently break IEEE semantics; these tests pin the table's
// behaviour at each edge (see also src/check/oracle.cc, which models
// the same rules independently).

uint64_t
quietNaN(uint64_t payload)
{
    return (0x7ffULL << 52) | (uint64_t{1} << 51) | payload;
}

TEST(MemoTableEdge, NaNOperandsAreBitExactKeys)
{
    MemoTable t(Operation::FpMul, cfg32());
    uint64_t n = quietNaN(0xabc), x = fpBits(2.0);
    t.update(n, x, n);
    auto hit = t.lookup(n, x);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, n);
    // A different payload is a different key.
    EXPECT_FALSE(t.lookup(quietNaN(0xabd), x).has_value());
}

TEST(MemoTableEdge, BothNaNPairsDoNotCommute)
{
    // x*y with two NaN operands returns the first operand's payload,
    // so the commutative dual-order match must be suppressed: a hit on
    // the swapped order would return the wrong payload bits.
    MemoTable t(Operation::FpMul, cfg32());
    uint64_t n1 = quietNaN(0x111), n2 = quietNaN(0x222);
    t.update(n1, n2, n1);
    EXPECT_TRUE(t.lookup(n1, n2).has_value());
    EXPECT_FALSE(t.lookup(n2, n1).has_value());
}

TEST(MemoTableEdge, SingleNaNPairStillCommutes)
{
    MemoTable t(Operation::FpMul, cfg32());
    uint64_t n = quietNaN(0x444), x = fpBits(2.0);
    t.update(n, x, n);
    auto hit = t.lookup(x, n);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, n);
}

TEST(MemoTable, CommutedUpdateSharesOneWay)
{
    // One set of four ways: a second entry for the commuted pair
    // would fit, so only the way match keeps the pair in one entry.
    MemoConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    MemoTable im(Operation::IntMul, cfg);
    im.update(6, 7, 42);
    im.update(7, 6, 42);
    EXPECT_EQ(im.stats().insertions, 1u);
    EXPECT_EQ(im.validEntries(), 1u);

    MemoTable fm(Operation::FpMul, cfg);
    fm.update(fpBits(3.0), fpBits(7.0), fpBits(21.0));
    fm.update(fpBits(7.0), fpBits(3.0), fpBits(21.0));
    EXPECT_EQ(fm.stats().insertions, 1u);
    EXPECT_EQ(fm.validEntries(), 1u);

    // Both-NaN products keep operand order: two entries.
    MemoTable nan(Operation::FpMul, cfg);
    uint64_t n1 = quietNaN(0x111), n2 = quietNaN(0x222);
    nan.update(n1, n2, n1);
    nan.update(n2, n1, n2);
    EXPECT_EQ(nan.stats().insertions, 2u);
    EXPECT_EQ(nan.validEntries(), 2u);
}

TEST(MemoTableEdge, SignedZerosAreDistinctKeys)
{
    // 1.0 * +0.0 = +0.0 but 1.0 * -0.0 = -0.0: the two zeros must not
    // alias. (Default config bypasses trivial ops; CacheAll inserts
    // them like any value.)
    MemoConfig cfg;
    cfg.trivialMode = TrivialMode::CacheAll;
    MemoTable t(Operation::FpMul, cfg);
    uint64_t pz = fpBits(0.0), nz = fpBits(-0.0), x = fpBits(1.5);
    t.update(pz, x, pz);
    ASSERT_TRUE(t.lookup(pz, x).has_value());
    EXPECT_EQ(*t.lookup(pz, x), pz);
    EXPECT_FALSE(t.lookup(nz, x).has_value());
}

TEST(MemoTableEdge, DenormalsHitInFullValueMode)
{
    MemoTable t(Operation::FpMul, cfg32());
    uint64_t d = 0x0000000000000abcULL; // small denormal
    uint64_t x = fpBits(0.5);
    uint64_t r = fpBits(fpFromBits(d) * 0.5);
    t.update(d, x, r);
    auto hit = t.lookup(d, x);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, r);
}

TEST(MemoTableEdge, MantissaModeBypassesDenormals)
{
    // Mantissa-only entries reconstruct a normal exponent; denormal
    // operands are not representable and must never be inserted or
    // hit.
    MemoConfig cfg;
    cfg.tagMode = TagMode::MantissaOnly;
    MemoTable t(Operation::FpMul, cfg);
    uint64_t d = 0x000fffffffffffffULL;
    t.update(d, fpBits(1.5), fpBits(fpFromBits(d) * 1.5));
    EXPECT_FALSE(t.lookup(d, fpBits(1.5)).has_value());
    EXPECT_EQ(t.validEntries(), 0u);
}

TEST(MemoTableEdge, MantissaModeBypassesZerosAndInfinities)
{
    MemoConfig cfg;
    cfg.tagMode = TagMode::MantissaOnly;
    cfg.trivialMode = TrivialMode::CacheAll; // don't fold 0 as trivial
    MemoTable t(Operation::FpMul, cfg);
    uint64_t inf = 0x7ffULL << 52;
    t.update(fpBits(0.0), fpBits(1.5), fpBits(0.0));
    t.update(inf, fpBits(1.5), inf);
    EXPECT_EQ(t.validEntries(), 0u);
    EXPECT_FALSE(t.lookup(fpBits(0.0), fpBits(1.5)).has_value());
    EXPECT_FALSE(t.lookup(inf, fpBits(1.5)).has_value());
}

TEST(MemoTableEdge, MantissaModeReconstructsSignAcrossFlips)
{
    MemoConfig cfg;
    cfg.tagMode = TagMode::MantissaOnly;
    MemoTable t(Operation::FpMul, cfg);
    t.update(fpBits(1.5), fpBits(1.25), fpBits(1.5 * 1.25));
    // Mantissa tags ignore the sign; the hit must re-derive it from
    // the probing operands.
    auto hit = t.lookup(fpBits(-1.5), fpBits(1.25));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(-1.5 * 1.25));
    hit = t.lookup(fpBits(-1.5), fpBits(-1.25));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(1.5 * 1.25));
}

/** Geometry sweep: (entries, ways) grid must behave sanely. */
class MemoGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(MemoGeometry, InsertedPairsHitUntilCapacity)
{
    auto [entries, ways] = GetParam();
    if (ways > entries)
        GTEST_SKIP();
    MemoConfig cfg;
    cfg.entries = entries;
    cfg.ways = ways;
    MemoTable t(Operation::FpDiv, cfg);

    // Up to `ways` distinct pairs that map to one set always coexist.
    // Use pairs with identical mantissas (same index) and different
    // exponents (different tags).
    for (unsigned i = 0; i < ways; i++) {
        double a = std::ldexp(1.5, static_cast<int>(i));
        t.update(fpBits(a), fpBits(1.5), fpBits(a / 1.5));
    }
    for (unsigned i = 0; i < ways; i++) {
        double a = std::ldexp(1.5, static_cast<int>(i));
        EXPECT_TRUE(t.lookup(fpBits(a), fpBits(1.5)).has_value()) << i;
    }
    EXPECT_EQ(t.validEntries(), ways);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MemoGeometry,
    ::testing::Combine(::testing::Values(8u, 32u, 128u, 1024u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

} // anonymous namespace
} // namespace memo
