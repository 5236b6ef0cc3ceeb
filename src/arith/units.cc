#include "units.hh"

#include <cmath>

#include "fp.hh"

namespace memo
{

namespace
{

using u128 = unsigned __int128;

constexpr uint64_t fracMask = (uint64_t{1} << fpMantissaBits) - 1;

inline unsigned
ceilDiv(unsigned a, unsigned b)
{
    return (a + b - 1) / b;
}

/**
 * Round-to-nearest-even step shared by all units.
 *
 * @param mant 53-bit significand (in [2^52, 2^53))
 * @param guard the bit below the LSB
 * @param sticky OR of all lower bits
 * @param e unbiased exponent, adjusted in place on rounding overflow
 * @return the rounded 53-bit significand
 */
inline uint64_t
roundRne(uint64_t mant, bool guard, bool sticky, int &e)
{
    if (guard && (sticky || (mant & 1)))
        mant++;
    if (mant >> (fpMantissaBits + 1)) {
        mant >>= 1;
        e++;
    }
    return mant;
}

/** Compose a result, or report exponent overflow/underflow. */
inline bool
compose(unsigned sign, int e, uint64_t mant, double &out)
{
    int biased = e + fpExponentBias;
    if (biased < 1 || biased > 2046)
        return false;
    out = fpCompose(sign, static_cast<unsigned>(biased), mant & fracMask);
    return true;
}

/** Restoring integer square root; also yields the remainder. */
inline u128
isqrtRem(u128 n, u128 &rem)
{
    u128 x = 0;
    u128 bit = u128{1} << 126;
    while (bit > n)
        bit >>= 2;
    while (bit) {
        if (n >= x + bit) {
            n -= x + bit;
            x = (x >> 1) + bit;
        } else {
            x >>= 1;
        }
        bit >>= 2;
    }
    rem = n;
    return x;
}

} // anonymous namespace

SrtDivider::SrtDivider(unsigned bits_per_cycle, unsigned overhead_cycles)
    : bitsPerCycle(bits_per_cycle), overheadCycles(overhead_cycles)
{
}

unsigned
SrtDivider::latency() const
{
    return ceilDiv(quotientBits, bitsPerCycle) + overheadCycles;
}

UnitOutcome
SrtDivider::divide(double a, double b) const
{
    if (!fpIsNormal(a) || !fpIsNormal(b))
        return {a / b, overheadCycles, true};

    unsigned sign = fpSign(a) ^ fpSign(b);
    uint64_t A = fpSignificand(a);
    uint64_t B = fpSignificand(b);
    int e = fpExponent(a) - fpExponent(b);

    // Normalize the quotient A/B into [1, 2).
    if (A < B) {
        A <<= 1;
        e--;
    }

    // 53 significand bits plus a guard bit; the remainder is the sticky.
    u128 n = u128{A} << 53;
    uint64_t q = static_cast<uint64_t>(n / B);
    bool sticky = (n % B) != 0;
    bool guard = q & 1;
    uint64_t mant = roundRne(q >> 1, guard, sticky, e);

    double out;
    if (!compose(sign, e, mant, out))
        return {a / b, latency(), true};
    return {out, latency(), false};
}

SequentialMultiplier::SequentialMultiplier(unsigned bits_per_cycle,
                                           unsigned overhead_cycles)
    : bitsPerCycle(bits_per_cycle), overheadCycles(overhead_cycles)
{
}

unsigned
SequentialMultiplier::latency() const
{
    return ceilDiv(fpMantissaBits + 1, bitsPerCycle) + overheadCycles;
}

UnitOutcome
SequentialMultiplier::multiply(double a, double b) const
{
    if (!fpIsNormal(a) || !fpIsNormal(b))
        return {a * b, overheadCycles, true};

    unsigned sign = fpSign(a) ^ fpSign(b);
    u128 p = u128{fpSignificand(a)} * fpSignificand(b);
    int e = fpExponent(a) + fpExponent(b);

    // p is in [2^104, 2^106); normalize the top bit to position 105.
    if (p >> 105)
        e++;
    else
        p <<= 1;

    uint64_t mant = static_cast<uint64_t>(p >> 53);
    bool guard = static_cast<uint64_t>(p >> 52) & 1;
    bool sticky = (p & ((u128{1} << 52) - 1)) != 0;
    mant = roundRne(mant, guard, sticky, e);

    double out;
    if (!compose(sign, e, mant, out))
        return {a * b, latency(), true};
    return {out, latency(), false};
}

DigitRecurrenceSqrt::DigitRecurrenceSqrt(unsigned bits_per_cycle,
                                         unsigned overhead_cycles)
    : bitsPerCycle(bits_per_cycle), overheadCycles(overhead_cycles)
{
}

unsigned
DigitRecurrenceSqrt::latency() const
{
    return ceilDiv(fpMantissaBits + 3, bitsPerCycle) + overheadCycles;
}

UnitOutcome
DigitRecurrenceSqrt::sqrt(double a) const
{
    if (!fpIsNormal(a) || fpSign(a))
        return {std::sqrt(a), overheadCycles, true};

    uint64_t A = fpSignificand(a);
    int f = fpExponent(a) - static_cast<int>(fpMantissaBits);

    // Make the exponent even so it halves exactly.
    if (f & 1) {
        A <<= 1; // A is now in [2^52, 2^54)
        f--;
    }
    int k = f / 2;

    // sqrt(A << 56) yields a 55-bit root: 53 bits + guard + round.
    u128 rem;
    u128 r = isqrtRem(u128{A} << 56, rem);

    uint64_t mant = static_cast<uint64_t>(r >> 2);
    bool guard = static_cast<uint64_t>(r >> 1) & 1;
    bool sticky = (static_cast<uint64_t>(r) & 1) || rem != 0;
    int e = k + 26;
    mant = roundRne(mant, guard, sticky, e);

    double out;
    if (!compose(0, e, mant, out))
        return {std::sqrt(a), latency(), true};
    return {out, latency(), false};
}

} // namespace memo
