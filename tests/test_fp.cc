/**
 * @file
 * Unit tests for IEEE-754 field decomposition (arith/fp).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arith/fp.hh"

namespace memo
{
namespace
{

TEST(Fp, BitsRoundTrip)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, 3.1415926, -1e300, 1e-300,
                     255.0}) {
        EXPECT_EQ(fpFromBits(fpBits(v)), v);
    }
}

TEST(Fp, SignExtraction)
{
    EXPECT_EQ(fpSign(1.0), 0u);
    EXPECT_EQ(fpSign(-1.0), 1u);
    EXPECT_EQ(fpSign(0.0), 0u);
    EXPECT_EQ(fpSign(-0.0), 1u);
    EXPECT_EQ(fpSign(-std::numeric_limits<double>::infinity()), 1u);
}

TEST(Fp, ExponentOfPowersOfTwo)
{
    EXPECT_EQ(fpExponent(1.0), 0);
    EXPECT_EQ(fpExponent(2.0), 1);
    EXPECT_EQ(fpExponent(0.5), -1);
    EXPECT_EQ(fpExponent(1024.0), 10);
}

TEST(Fp, BiasedExponent)
{
    EXPECT_EQ(fpBiasedExponent(1.0), 1023u);
    EXPECT_EQ(fpBiasedExponent(0.0), 0u);
    EXPECT_EQ(fpBiasedExponent(
                  std::numeric_limits<double>::infinity()),
              0x7ffu);
}

TEST(Fp, FractionOfOneIsZero)
{
    EXPECT_EQ(fpFraction(1.0), 0u);
    EXPECT_EQ(fpFraction(2.0), 0u);
    EXPECT_NE(fpFraction(1.5), 0u);
}

TEST(Fp, SignificandHasImplicitBit)
{
    EXPECT_EQ(fpSignificand(1.0), uint64_t{1} << 52);
    EXPECT_EQ(fpSignificand(1.5), (uint64_t{1} << 52) |
                                      (uint64_t{1} << 51));
    // Subnormals carry no implicit bit.
    double sub = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(fpSignificand(sub), 1u);
}

TEST(Fp, IsNormal)
{
    EXPECT_TRUE(fpIsNormal(1.0));
    EXPECT_TRUE(fpIsNormal(-123.25));
    EXPECT_FALSE(fpIsNormal(0.0));
    EXPECT_FALSE(fpIsNormal(std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(fpIsNormal(std::numeric_limits<double>::quiet_NaN()));
    EXPECT_FALSE(fpIsNormal(std::numeric_limits<double>::denorm_min()));
}

TEST(Fp, IsZeroBothSigns)
{
    EXPECT_TRUE(fpIsZero(0.0));
    EXPECT_TRUE(fpIsZero(-0.0));
    EXPECT_FALSE(fpIsZero(1e-320)); // subnormal, but not zero
}

TEST(Fp, ExactEqIsIeeeEqualityNotBitEquality)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(fpExactEq(1.0, 1.0));
    EXPECT_TRUE(fpExactEq(-1.0, -1.0));
    // The two zero encodings differ in bits but compare equal ...
    EXPECT_NE(fpBits(0.0), fpBits(-0.0));
    EXPECT_TRUE(fpExactEq(0.0, -0.0));
    // ... and a NaN equals nothing, not even its own bit pattern.
    EXPECT_FALSE(fpExactEq(nan, nan));
    EXPECT_FALSE(fpExactEq(nan, 1.0));
    // One ulp is a different value: there is no tolerance.
    EXPECT_FALSE(fpExactEq(1.0, std::nextafter(1.0, 2.0)));
}

TEST(Fp, ComposeReconstructs)
{
    for (double v : {1.0, -2.5, 255.0, 1e-12, -3.25e20}) {
        double r = fpCompose(fpSign(v), fpBiasedExponent(v),
                             fpFraction(v));
        EXPECT_EQ(r, v);
    }
}

TEST(Fp, ComposeMasksFields)
{
    // Extra high bits in the inputs must not leak.
    double v = fpCompose(2, 0x7ff + 0x800, 0);
    EXPECT_EQ(fpSign(v), 0u);
    EXPECT_EQ(fpBiasedExponent(v), 0x7ffu);
}

/** Decompose/compose round-trip over a deterministic operand sweep. */
class FpRoundTrip : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FpRoundTrip, FieldsRecompose)
{
    uint64_t seed = GetParam();
    // splitmix-style generator for arbitrary bit patterns.
    uint64_t z = seed;
    for (int i = 0; i < 1000; i++) {
        z += 0x9e3779b97f4a7c15ULL;
        uint64_t bits = z ^ (z >> 31);
        double v = fpFromBits(bits);
        if (std::isnan(v))
            continue;
        double r = fpCompose(fpSign(v), fpBiasedExponent(v),
                             fpFraction(v));
        EXPECT_EQ(fpBits(r), bits);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FpRoundTrip,
                         ::testing::Values(1, 42, 0xdeadbeef,
                                           0x123456789abcdefULL));

TEST(Fp, NaNBitsClassification)
{
    // quiet and signaling NaNs, either sign
    EXPECT_TRUE(fpIsNaNBits(0x7ff8000000000000ULL));
    EXPECT_TRUE(fpIsNaNBits(0xfff8000000000000ULL));
    EXPECT_TRUE(fpIsNaNBits(0x7ff0000000000001ULL));
    EXPECT_TRUE(fpIsNaNBits(0x7fffffffffffffffULL));
    // infinities have an empty fraction
    EXPECT_FALSE(fpIsNaNBits(0x7ff0000000000000ULL));
    EXPECT_FALSE(fpIsNaNBits(0xfff0000000000000ULL));
    // normals, denormals, zeros
    EXPECT_FALSE(fpIsNaNBits(fpBits(1.5)));
    EXPECT_FALSE(fpIsNaNBits(fpBits(-1e308)));
    EXPECT_FALSE(fpIsNaNBits(0x0000000000000001ULL));
    EXPECT_FALSE(fpIsNaNBits(0x8000000000000000ULL));
    EXPECT_FALSE(fpIsNaNBits(0));
}

TEST(Fp, NaNBitsAgreesWithIsnan)
{
    uint64_t z = 99;
    for (int i = 0; i < 4000; i++) {
        z += 0x9e3779b97f4a7c15ULL;
        uint64_t bits = z ^ (z >> 31);
        EXPECT_EQ(fpIsNaNBits(bits), std::isnan(fpFromBits(bits)))
            << std::hex << bits;
        // Force the NaN exponent to exercise the boundary densely.
        uint64_t nanish = bits | (0x7ffULL << 52);
        EXPECT_EQ(fpIsNaNBits(nanish), std::isnan(fpFromBits(nanish)))
            << std::hex << nanish;
    }
}

} // anonymous namespace
} // namespace memo
