/**
 * @file
 * IEEE-754 double precision field decomposition helpers.
 *
 * The MEMO-TABLE variants of Citron/Feitelson/Rudolph (ASPLOS'98) need
 * access to the sign / exponent / mantissa fields of floating point
 * operands: the index hash XORs the most significant mantissa bits, and
 * the "mantissa-only" tag mode stores mantissas while recomputing the
 * result exponent inside the table.
 */

#ifndef MEMO_ARITH_FP_HH
#define MEMO_ARITH_FP_HH

#include <bit>
#include <cstdint>

namespace memo
{

/** Number of explicit mantissa (fraction) bits in an IEEE-754 double. */
constexpr unsigned fpMantissaBits = 52;

/** Number of exponent bits in an IEEE-754 double. */
constexpr unsigned fpExponentBits = 11;

/** Exponent bias of an IEEE-754 double. */
constexpr int fpExponentBias = 1023;

/** Reinterpret a double as its raw 64-bit pattern. */
inline uint64_t
fpBits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Reinterpret a 64-bit pattern as a double. */
inline double
fpFromBits(uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** Extract the sign bit (0 or 1). */
inline unsigned
fpSign(double v)
{
    return static_cast<unsigned>(fpBits(v) >> 63);
}

/** Extract the raw (biased) exponent field. */
inline unsigned
fpBiasedExponent(double v)
{
    return static_cast<unsigned>((fpBits(v) >> fpMantissaBits) & 0x7ff);
}

/** Extract the unbiased exponent. Only meaningful for normal numbers. */
inline int
fpExponent(double v)
{
    return static_cast<int>(fpBiasedExponent(v)) - fpExponentBias;
}

/** Extract the 52 explicit fraction bits (no implicit leading one). */
inline uint64_t
fpFraction(double v)
{
    return fpBits(v) & ((uint64_t{1} << fpMantissaBits) - 1);
}

/**
 * Extract the full 53-bit significand including the implicit leading one
 * for normal numbers. Subnormals return the fraction as-is (leading zero).
 */
uint64_t fpSignificand(double v);

/** True iff @p v is a normal, nonzero finite number. */
bool fpIsNormal(double v);

/** True iff @p v is +0.0 or -0.0. */
inline bool
fpIsZero(double v)
{
    return (fpBits(v) & ~(uint64_t{1} << 63)) == 0;
}

/**
 * IEEE-754 `a == b`, for the compares whose exactness is the point
 * (the trivial-operand detector, test oracles; zero tests use
 * fpIsZero). +0 equals
 * -0 and a NaN equals nothing, so this is not a bit-pattern compare.
 * Every target builds with -Werror=float-equal; this body is the one
 * place that warning is switched off.
 */
inline bool
fpExactEq(double a, double b)
{
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
    return a == b;
#pragma GCC diagnostic pop
}

/** True iff the bit pattern encodes a NaN (any payload). */
inline bool
fpIsNaNBits(uint64_t bits)
{
    constexpr uint64_t frac_mask = (uint64_t{1} << fpMantissaBits) - 1;
    return ((bits >> fpMantissaBits) & 0x7ff) == 0x7ff &&
           (bits & frac_mask) != 0;
}

/**
 * Compose a double from fields.
 *
 * @param sign 0 or 1.
 * @param biased_exponent raw 11-bit exponent field.
 * @param fraction 52 explicit fraction bits.
 */
double fpCompose(unsigned sign, unsigned biased_exponent, uint64_t fraction);

} // namespace memo

#endif // MEMO_ARITH_FP_HH
