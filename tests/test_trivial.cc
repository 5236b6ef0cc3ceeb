/**
 * @file
 * Unit tests for trivial-operation classification (arith/trivial).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "arith/fp.hh"
#include "arith/trivial.hh"

namespace memo
{
namespace
{

TEST(TrivialMul, ZeroOperand)
{
    auto t = trivialFpMul(0.0, 3.5);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::MulByZero);
    EXPECT_EQ(t->result, 0.0);

    t = trivialFpMul(3.5, -0.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::MulByZero);
    // IEEE sign of zero must be preserved.
    EXPECT_TRUE(std::signbit(t->result));
}

TEST(TrivialMul, OneOperand)
{
    auto t = trivialFpMul(1.0, 42.5);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::MulByOne);
    EXPECT_EQ(t->result, 42.5);

    t = trivialFpMul(-7.0, 1.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->result, -7.0);
}

TEST(TrivialMul, NonTrivial)
{
    EXPECT_FALSE(trivialFpMul(2.0, 3.0).has_value());
    EXPECT_FALSE(trivialFpMul(-1.0, 3.0).has_value()); // basic set
}

TEST(TrivialMul, OneUlpFromOneIsNotTrivial)
{
    // The detector matches the constants exactly (section 2 of the
    // paper): an operand one ulp either side of 1.0 or -1.0 is an
    // ordinary operation that the MEMO-TABLE must look up.
    for (double one : {1.0, -1.0})
        for (double near : {std::nextafter(one, 0.0),
                            std::nextafter(one, 2.0 * one)}) {
            EXPECT_FALSE(trivialFpMul(near, 3.0, true).has_value())
                << near;
            EXPECT_FALSE(trivialFpMul(3.0, near, true).has_value())
                << near;
            EXPECT_FALSE(trivialFpDiv(3.0, near, true).has_value())
                << near;
        }
    EXPECT_FALSE(trivialFpSqrt(std::nextafter(1.0, 2.0), true).has_value());
}

TEST(TrivialMul, ExtendedSetNegOne)
{
    auto t = trivialFpMul(-1.0, 3.0, true);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::MulByNegOne);
    EXPECT_EQ(t->result, -3.0);
}

TEST(TrivialMul, NonFiniteOperandsAreNotTrivial)
{
    double inf = std::numeric_limits<double>::infinity();
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(trivialFpMul(inf, 1.0).has_value());
    EXPECT_FALSE(trivialFpMul(nan, 0.0).has_value());
}

TEST(TrivialDiv, ByOne)
{
    auto t = trivialFpDiv(9.25, 1.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::DivByOne);
    EXPECT_EQ(t->result, 9.25);
}

TEST(TrivialDiv, ZeroDividend)
{
    auto t = trivialFpDiv(0.0, 4.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::ZeroDividend);
    EXPECT_EQ(t->result, 0.0);
}

TEST(TrivialDiv, DivisionByZeroIsNotTrivial)
{
    EXPECT_FALSE(trivialFpDiv(1.0, 0.0).has_value());
    EXPECT_FALSE(trivialFpDiv(0.0, 0.0).has_value());
}

TEST(TrivialDiv, ExtendedSet)
{
    EXPECT_FALSE(trivialFpDiv(5.0, 5.0).has_value());
    auto t = trivialFpDiv(5.0, 5.0, true);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::DivBySelf);
    EXPECT_EQ(t->result, 1.0);

    t = trivialFpDiv(5.0, -1.0, true);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::DivByNegOne);
    EXPECT_EQ(t->result, -5.0);
}

TEST(TrivialSqrt, OnlyInExtendedSet)
{
    EXPECT_FALSE(trivialFpSqrt(0.0).has_value());
    auto t = trivialFpSqrt(0.0, true);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, TrivialKind::SqrtOfZero);

    t = trivialFpSqrt(1.0, true);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->result, 1.0);

    EXPECT_FALSE(trivialFpSqrt(4.0, true).has_value());
}

TEST(TrivialInt, BasicSet)
{
    auto t = trivialIntMul(0, 77);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->result, 0);

    t = trivialIntMul(1, -5);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->result, -5);

    EXPECT_FALSE(trivialIntMul(2, 3).has_value());
    EXPECT_FALSE(trivialIntMul(-1, 3).has_value());
}

TEST(TrivialInt, ExtendedSet)
{
    auto t = trivialIntMul(-1, 3, true);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->result, -3);
}

TEST(TrivialResults, MatchNativeArithmetic)
{
    // Whatever the detector returns must equal the real operation.
    for (double a : {0.0, 1.0, -0.0, 2.5, -3.5}) {
        for (double b : {0.0, 1.0, -1.0, 4.0}) {
            if (auto t = trivialFpMul(a, b, true)) {
                EXPECT_EQ(t->result, a * b) << a << "*" << b;
            }
            // Exact compare against literal zero guards the
            // division below.
            if (!fpIsZero(b)) {
                if (auto t = trivialFpDiv(a, b, true)) {
                    EXPECT_EQ(t->result, a / b) << a << "/" << b;
                }
            }
        }
    }
}

} // anonymous namespace
} // namespace memo
