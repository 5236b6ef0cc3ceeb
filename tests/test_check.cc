/**
 * @file
 * Tests for the verification subsystem (src/check): the exact oracle,
 * the differential checkers, and the seeded fuzzer, including the
 * mutation smoke test that proves the harness detects an injected
 * tag-comparison bug.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "arith/fp.hh"
#include "check/differ.hh"
#include "check/fuzz.hh"
#include "check/oracle.hh"

namespace memo::check
{
namespace
{

uint64_t
quietNaN(uint64_t payload)
{
    return (0x7ffULL << 52) | (uint64_t{1} << 51) | payload;
}

TEST(Oracle, MissThenExactHit)
{
    OracleTable o(Operation::FpDiv, MemoConfig{});
    uint64_t a = fpBits(10.0), b = fpBits(4.0), r = fpBits(2.5);
    EXPECT_FALSE(o.lookup(a, b).has_value());
    o.update(a, b, r);
    auto hit = o.lookup(a, b);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, r);
    EXPECT_EQ(o.stats().lookups, 2u);
    EXPECT_EQ(o.stats().hits, 1u);
    EXPECT_EQ(o.stats().misses, 1u);
}

TEST(Oracle, NeverForgets)
{
    // Unbounded: thousands of distinct pairs all stay resident.
    OracleTable o(Operation::FpMul, MemoConfig{});
    for (int i = 2; i < 2000; i++) {
        double a = 1.0 + i * 0.001;
        o.update(fpBits(a), fpBits(3.0), fpBits(a * 3.0));
    }
    for (int i = 2; i < 2000; i++) {
        double a = 1.0 + i * 0.001;
        auto hit = o.lookup(fpBits(a), fpBits(3.0));
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(*hit, fpBits(a * 3.0));
    }
}

TEST(Oracle, CommutativeLookup)
{
    OracleTable o(Operation::FpMul, MemoConfig{});
    o.update(fpBits(3.0), fpBits(7.0), fpBits(21.0));
    auto hit = o.lookup(fpBits(7.0), fpBits(3.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(21.0));
}

TEST(Oracle, BothNaNPairsAreOrderSensitive)
{
    // a*b with two NaN operands propagates the first payload, so the
    // swapped order is a different computation and must miss.
    OracleTable o(Operation::FpMul, MemoConfig{});
    uint64_t n1 = quietNaN(0x111), n2 = quietNaN(0x222);
    o.update(n1, n2, n1);
    EXPECT_TRUE(o.lookup(n1, n2).has_value());
    EXPECT_FALSE(o.lookup(n2, n1).has_value());
}

TEST(Oracle, SingleNaNStillCommutes)
{
    OracleTable o(Operation::FpMul, MemoConfig{});
    uint64_t n = quietNaN(0x333), x = fpBits(2.0);
    o.update(n, x, n);
    EXPECT_TRUE(o.lookup(x, n).has_value());
}

TEST(Oracle, MantissaModeReconstructsAcrossExponents)
{
    MemoConfig cfg;
    cfg.tagMode = TagMode::MantissaOnly;
    OracleTable o(Operation::FpMul, cfg);

    o.update(fpBits(1.5), fpBits(1.25), fpBits(1.5 * 1.25));
    // Same mantissas, shifted exponents: the entry's fraction + delta
    // must reconstruct the exact product.
    auto hit = o.lookup(fpBits(3.0), fpBits(2.5));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(3.0 * 2.5));
    // And with a sign flip.
    hit = o.lookup(fpBits(-3.0), fpBits(2.5));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(-3.0 * 2.5));
}

TEST(Oracle, MantissaModeMissesWhenExponentLeavesRange)
{
    MemoConfig cfg;
    cfg.tagMode = TagMode::MantissaOnly;
    OracleTable o(Operation::FpMul, cfg);
    o.update(fpBits(1.5), fpBits(1.25), fpBits(1.5 * 1.25));

    // Same mantissas but the reconstructed exponent overflows: the
    // true product is +inf, which no mantissa entry can represent.
    uint64_t big = fpBits(std::ldexp(1.5, 1000));
    uint64_t big2 = fpBits(std::ldexp(1.25, 1000));
    EXPECT_FALSE(o.lookup(big, big2).has_value());
}

TEST(Oracle, MantissaModeBypassesNonNormals)
{
    MemoConfig cfg;
    cfg.tagMode = TagMode::MantissaOnly;
    OracleTable o(Operation::FpMul, cfg);
    uint64_t denorm = 0x000fffffffffffffULL;
    o.update(denorm, fpBits(1.5), 0);
    EXPECT_EQ(o.size(), 0u);
    EXPECT_FALSE(o.lookup(denorm, fpBits(1.5)).has_value());
}

TEST(Oracle, TrivialBypassInNonTrivialOnlyMode)
{
    MemoConfig cfg;
    cfg.trivialMode = TrivialMode::NonTrivialOnly;
    OracleTable o(Operation::FpMul, cfg);
    EXPECT_FALSE(o.lookup(fpBits(1.0), fpBits(9.0)).has_value());
    EXPECT_EQ(o.stats().trivialBypassed, 1u);
    EXPECT_EQ(o.stats().lookups, 0u);
}

TEST(Oracle, TrivialHitInIntegratedMode)
{
    MemoConfig cfg;
    cfg.trivialMode = TrivialMode::Integrated;
    OracleTable o(Operation::FpMul, cfg);
    auto hit = o.lookup(fpBits(0.0), fpBits(9.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fpBits(0.0));
    EXPECT_EQ(o.stats().trivialHits, 1u);
}

TEST(Differ, StatsConservedHelper)
{
    MemoStats s;
    s.lookups = 10;
    s.hits = 4;
    s.trivialHits = 1;
    s.misses = 5;
    EXPECT_FALSE(statsConserved(s, "t").has_value());
    s.misses = 4;
    EXPECT_TRUE(statsConserved(s, "t").has_value());
}

TEST(Differ, CleanStreamHasNoViolations)
{
    for (TagMode tm : {TagMode::FullValue, TagMode::MantissaOnly}) {
        MemoConfig cfg;
        cfg.tagMode = tm;
        MemoTableChecker c(Operation::FpMul, cfg);
        FuzzRng rng(7);
        for (int i = 0; i < 4000; i++) {
            double a = 1.0 + static_cast<double>(rng.below(64)) * 0.25;
            double b = 1.0 + static_cast<double>(rng.below(16)) * 0.5;
            auto err = c.step(fpBits(a), fpBits(b), fpBits(a * b));
            EXPECT_FALSE(err.has_value()) << *err;
        }
        EXPECT_GT(c.real().stats().hits, 0u);
    }
}

TEST(Differ, InfiniteTableTracksOracleExactly)
{
    MemoConfig cfg;
    cfg.infinite = true;
    MemoTableChecker c(Operation::FpDiv, cfg);
    FuzzRng rng(11);
    for (int i = 0; i < 2000; i++) {
        double a = 1.0 + static_cast<double>(rng.below(128)) * 0.125;
        double b = 1.0 + static_cast<double>(rng.below(32)) * 0.25;
        auto err = c.step(fpBits(a), fpBits(b), fpBits(a / b));
        EXPECT_FALSE(err.has_value()) << *err;
    }
}

TEST(Differ, InjectedTagBugIsCaught)
{
    // Two operands that differ only in their top 16 bits alias under
    // the injected comparator; the differential must flag the false
    // hit on the second access. The low 48 bits must be nonzero, or
    // the masked operand degenerates to +0.0 and the trivial-op
    // bypass keeps it out of the table.
    MemoTableChecker c(Operation::FpMul, MemoConfig{}, true);
    uint64_t a1 = fpBits(1.5) | 0x123456;
    uint64_t a2 = a1 ^ (uint64_t{0x7} << 60);
    uint64_t b = fpBits(2.0);

    EXPECT_FALSE(c.step(a1, b, fpBits(3.0)).has_value());
    auto err = c.step(a2, b, fpBits(fpFromBits(a2) * 2.0));
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("violated"), std::string::npos) << *err;
}

/** One table design the MemoTable differential is held to. */
struct DifferCase
{
    const char *name;
    Operation op;
    MemoConfig cfg;
};

/** Names the case in test listings (a stable name, no raw bytes). */
void
PrintTo(const DifferCase &c, std::ostream *os)
{
    *os << c.name;
}

class DifferDesign : public ::testing::TestWithParam<DifferCase>
{
};

TEST_P(DifferDesign, ReusingStreamHoldsEveryInvariant)
{
    // A stream over a small operand pool — trivial operands, signed
    // zeros, a NaN and a denormal among ordinary values — reuses pairs
    // at every distance, so a small table both hits and evicts while
    // the checker verifies transparency, containment and conservation
    // (and equivalence, for the infinite table) after each access.
    const DifferCase &c = GetParam();
    ASSERT_EQ(c.cfg.validate(), "");
    MemoTableChecker checker(c.op, c.cfg);
    const double pool[] = {1.5,  2.25, 3.0,   -0.75, 5.5, 7.125, 1.0,
                           0.0,  -0.0, 12.5,  0.375, 9.0, -6.5,  2.0,
                           std::nan(""), 0x1p-1030};
    FuzzRng rng(2024);
    for (int i = 0; i < 3000; i++) {
        uint64_t a = fpBits(pool[rng.below(std::size(pool))]);
        uint64_t b = fpBits(pool[rng.below(std::size(pool))]);
        if (c.op == Operation::IntMul) {
            a = rng.below(24);
            b = rng.below(24);
        }
        auto err = checker.step(a, b, computeResult(c.op, a, b));
        ASSERT_FALSE(err.has_value()) << "access " << i << ": " << *err;
    }
    const MemoStats &s = checker.real().stats();
    EXPECT_GT(s.allHits(), 0u);
    EXPECT_LE(s.hits, checker.oracle().stats().hits);
    if (!c.cfg.infinite) {
        EXPECT_GT(s.evictions, 0u);
    }
}

constexpr auto Fifo = Replacement::Fifo;
constexpr auto Mant = TagMode::MantissaOnly;

INSTANTIATE_TEST_SUITE_P(
    Designs, DifferDesign,
    ::testing::Values(
        DifferCase{"LruFpMul", Operation::FpMul, {.entries = 8, .ways = 2}},
        DifferCase{"FifoFpMul", Operation::FpMul,
                   {.entries = 8, .ways = 2, .replacement = Fifo}},
        DifferCase{"RandomFpMul", Operation::FpMul,
                   {.entries = 8, .ways = 2,
                    .replacement = Replacement::Random}},
        DifferCase{"DirectMappedFpDiv", Operation::FpDiv,
                   {.entries = 8, .ways = 1}},
        DifferCase{"FullyAssociativeFpDiv", Operation::FpDiv,
                   {.entries = 8, .ways = 8}},
        DifferCase{"MantissaFpMul", Operation::FpMul,
                   {.entries = 8, .ways = 2, .tagMode = Mant}},
        DifferCase{"MantissaFpDiv", Operation::FpDiv,
                   {.entries = 8, .ways = 4, .tagMode = Mant,
                    .replacement = Fifo}},
        DifferCase{"CacheAllFpDiv", Operation::FpDiv,
                   {.entries = 8, .ways = 2,
                    .trivialMode = TrivialMode::CacheAll}},
        DifferCase{"IntegratedFpMul", Operation::FpMul,
                   {.entries = 8, .ways = 2,
                    .trivialMode = TrivialMode::Integrated}},
        DifferCase{"ParityExtendedTrivialFpMul", Operation::FpMul,
                   {.entries = 8, .ways = 2, .extendedTrivial = true,
                    .parityProtected = true}},
        DifferCase{"PaperXorHashFpMul", Operation::FpMul,
                   {.entries = 8, .ways = 2,
                    .hashScheme = HashScheme::PaperXor}},
        DifferCase{"LruIntMul", Operation::IntMul, {.entries = 8, .ways = 2}},
        DifferCase{"MantissaSqrt", Operation::FpSqrt,
                   {.entries = 4, .ways = 2, .tagMode = Mant}},
        DifferCase{"InfiniteFpDiv", Operation::FpDiv, {.infinite = true}}),
    [](const ::testing::TestParamInfo<DifferCase> &info) {
        return std::string(info.param.name);
    });

TEST(Fuzz, CampaignIsDeterministic)
{
    FuzzOptions opts;
    opts.seed = 42;
    opts.iters = 30;
    opts.streamLen = 64;
    EXPECT_FALSE(runFuzzCase(5, opts).has_value());
    // Same (seed, index) must reproduce the same verdict.
    EXPECT_FALSE(runFuzzCase(5, opts).has_value());
}

TEST(Fuzz, ShortCampaignIsClean)
{
    FuzzOptions opts;
    opts.seed = 1;
    opts.iters = 60;
    opts.streamLen = 96;
    auto failure = fuzz(opts);
    EXPECT_FALSE(failure.has_value())
        << failure->what << "\n" << failure->repro;
}

TEST(Fuzz, MutationSelfTestCatchesInjectedBug)
{
    FuzzOptions opts;
    opts.seed = 1;
    opts.iters = 50;
    opts.streamLen = 128;
    EXPECT_TRUE(mutationSelfTest(opts));
}

TEST(Fuzz, ComputeResultMatchesHostSemantics)
{
    EXPECT_EQ(computeResult(Operation::IntMul,
                            static_cast<uint64_t>(INT64_MIN), 2),
              static_cast<uint64_t>(INT64_MIN) * 2); // wraps, no UB
    EXPECT_EQ(computeResult(Operation::FpMul, fpBits(1.5), fpBits(2.0)),
              fpBits(3.0));
    EXPECT_EQ(computeResult(Operation::FpSqrt, fpBits(9.0), 0),
              fpBits(3.0));
}

} // anonymous namespace
} // namespace memo::check
