/**
 * @file
 * Property-based tests: MEMO-TABLE invariants checked over the full
 * configuration grid with deterministic pseudo-random workloads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "arith/fp.hh"
#include "core/memo_table.hh"

namespace memo
{
namespace
{

struct Params
{
    unsigned entries;
    unsigned ways;
    TagMode tag;
    TrivialMode trivial;
    Replacement repl;
    HashScheme hash;
};

class MemoProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, TagMode, TrivialMode,
                     Replacement, HashScheme>>
{
  protected:
    MemoConfig
    config() const
    {
        auto [entries, ways, tag, trivial, repl, hash] = GetParam();
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = ways;
        cfg.tagMode = tag;
        cfg.trivialMode = trivial;
        cfg.replacement = repl;
        cfg.hashScheme = hash;
        return cfg;
    }

    /** Deterministic operand stream with a smallish alphabet. */
    double
    nextOperand()
    {
        z += 0x9e3779b97f4a7c15ULL;
        uint64_t v = z ^ (z >> 31);
        // 64 mantissas x 8 exponents, plus occasional 0.0 / 1.0 to
        // exercise the trivial paths.
        if (v % 37 == 0)
            return 0.0;
        if (v % 41 == 0)
            return 1.0;
        double m = 1.0 + static_cast<double>(v % 16) / 16.0;
        return std::ldexp(m, static_cast<int>((v >> 8) % 2));
    }

    uint64_t z = 777;
};

TEST_P(MemoProperty, HitsReturnExactResults)
{
    for (Operation op : {Operation::FpMul, Operation::FpDiv}) {
        MemoTable t(op, config());
        uint64_t checked = 0;
        for (int i = 0; i < 4000; i++) {
            double a = nextOperand();
            double b = nextOperand();
            // Exact compare against literal zero skips undefined
            // division.
            if (op == Operation::FpDiv && fpIsZero(b))
                continue;
            double native = op == Operation::FpMul ? a * b : a / b;
            if (auto hit = t.lookup(fpBits(a), fpBits(b))) {
                EXPECT_EQ(fpFromBits(*hit), native)
                    << a << (op == Operation::FpMul ? " * " : " / ")
                    << b;
                checked++;
            } else {
                t.update(fpBits(a), fpBits(b), fpBits(native));
            }
        }
        // The small alphabet guarantees hits to check even in the
        // smallest direct-mapped configuration.
        EXPECT_GT(checked, 10u);
    }
}

TEST_P(MemoProperty, StatsInvariants)
{
    MemoTable t(Operation::FpMul, config());
    for (int i = 0; i < 3000; i++) {
        double a = nextOperand();
        double b = nextOperand();
        if (!t.lookup(fpBits(a), fpBits(b)))
            t.update(fpBits(a), fpBits(b), fpBits(a * b));
    }
    const MemoStats &s = t.stats();
    EXPECT_EQ(s.lookups, s.hits + s.trivialHits + s.misses);
    EXPECT_LE(s.evictions, s.insertions);
    EXPECT_LE(t.validEntries(), config().entries);
    EXPECT_GE(s.hitRatio(), 0.0);
    EXPECT_LE(s.hitRatio(), 1.0);
    if (config().trivialMode == TrivialMode::NonTrivialOnly) {
        EXPECT_GT(s.trivialBypassed, 0u);
    }
    if (config().trivialMode == TrivialMode::Integrated) {
        EXPECT_GT(s.trivialHits, 0u);
    }
}

TEST_P(MemoProperty, CommutativityOfMultiplication)
{
    MemoTable t(Operation::FpMul, config());
    for (int i = 0; i < 1500; i++) {
        double a = nextOperand();
        double b = nextOperand();
        auto fwd = t.lookup(fpBits(a), fpBits(b));
        auto rev = t.lookup(fpBits(b), fpBits(a));
        // Looking up both orders back to back: identical outcomes
        // (modulo LRU effects, impossible within one set here because
        // the second lookup follows immediately).
        EXPECT_EQ(fwd.has_value(), rev.has_value());
        if (fwd && rev) {
            EXPECT_EQ(fpFromBits(*fwd), fpFromBits(*rev));
        }
        if (!fwd)
            t.update(fpBits(a), fpBits(b), fpBits(a * b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MemoProperty,
    ::testing::Combine(
        ::testing::Values(8u, 32u, 256u),
        ::testing::Values(1u, 4u),
        ::testing::Values(TagMode::FullValue, TagMode::MantissaOnly),
        ::testing::Values(TrivialMode::CacheAll,
                          TrivialMode::NonTrivialOnly,
                          TrivialMode::Integrated),
        ::testing::Values(Replacement::Lru, Replacement::Random),
        ::testing::Values(HashScheme::PaperXor, HashScheme::Additive)));

TEST(MemoConfigValidate, RejectsBadGeometry)
{
    MemoConfig cfg;
    cfg.entries = 33;
    EXPECT_FALSE(cfg.validate().empty());
    cfg.entries = 32;
    cfg.ways = 3;
    EXPECT_FALSE(cfg.validate().empty());
    cfg.ways = 64;
    EXPECT_FALSE(cfg.validate().empty());
    cfg.ways = 4;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.infinite = true;
    cfg.entries = 0;
    EXPECT_TRUE(cfg.validate().empty()); // geometry ignored
}

TEST(MemoConfigDescribe, HumanReadable)
{
    MemoConfig cfg;
    EXPECT_EQ(cfg.describe(), "32/4 full non");
    cfg.tagMode = TagMode::MantissaOnly;
    cfg.trivialMode = TrivialMode::Integrated;
    EXPECT_EQ(cfg.describe(), "32/4 mant intgr");
    cfg.infinite = true;
    cfg.trivialMode = TrivialMode::CacheAll;
    EXPECT_EQ(cfg.describe(), "infinite mant all");
}

} // anonymous namespace
} // namespace memo
