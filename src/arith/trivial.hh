/**
 * @file
 * Classification of trivial arithmetic operations.
 *
 * The paper distinguishes "trivial" operations — multiplying by 1 or 0,
 * dividing by 1, dividing 0 — which complete in a few cycles anyhow and
 * therefore should not occupy MEMO-TABLE entries. Table 9 studies three
 * policies: caching all operations, caching only non-trivial operations,
 * and integrating a trivial-operation detector into the MEMO-TABLE so
 * that trivial operations count as hits without being stored.
 *
 * An "extended" classification (Richardson-style: x*-1, x/x, x/-1,
 * sqrt(0), sqrt(1)) is provided as an ablation knob; the paper's results
 * use only the basic set.
 */

#ifndef MEMO_ARITH_TRIVIAL_HH
#define MEMO_ARITH_TRIVIAL_HH

#include <cmath>
#include <cstdint>
#include <optional>

#include "fp.hh"

namespace memo
{

/** Reason an operation was classified as trivial. */
enum class TrivialKind
{
    MulByZero,    //!< a*0 or 0*b
    MulByOne,     //!< a*1 or 1*b
    DivByOne,     //!< a/1
    ZeroDividend, //!< 0/b (b != 0)
    MulByNegOne,  //!< extended set only
    DivByNegOne,  //!< extended set only
    DivBySelf,    //!< extended set only (x/x, x finite nonzero)
    SqrtOfZero,   //!< extended set only
    SqrtOfOne,    //!< extended set only
};

/** A detected trivial operation: its kind and the (exact) result. */
struct Trivial
{
    TrivialKind kind;
    double result;
};

// The detectors below run once per table access in the replay hot
// loop; they are defined inline so the probe path pays a handful of
// compares, not a function call. The exact compares against
// 1.0 / -1.0 (fpExactEq) are the mechanism, not an accident: the
// hardware trivial-operand detector matches the operand's bit pattern
// against a handful of constants (Citron et al., section 2). An
// epsilon here would change which operations count as trivial.

/**
 * Classify a floating point multiplication.
 *
 * @param a first operand
 * @param b second operand
 * @param extended also detect the Richardson-style extended set
 * @return the trivial classification, or nullopt for a non-trivial op
 */
inline std::optional<Trivial>
trivialFpMul(double a, double b, bool extended = false)
{
    if (std::isnan(a) || std::isnan(b) || std::isinf(a) || std::isinf(b))
        return std::nullopt;
    if (fpIsZero(a) || fpIsZero(b))
        return Trivial{TrivialKind::MulByZero, a * b};
    if (fpExactEq(a, 1.0))
        return Trivial{TrivialKind::MulByOne, b};
    if (fpExactEq(b, 1.0))
        return Trivial{TrivialKind::MulByOne, a};
    if (extended) {
        if (fpExactEq(a, -1.0))
            return Trivial{TrivialKind::MulByNegOne, -b};
        if (fpExactEq(b, -1.0))
            return Trivial{TrivialKind::MulByNegOne, -a};
    }
    return std::nullopt;
}

/** Classify a floating point division (see trivialFpMul). */
inline std::optional<Trivial>
trivialFpDiv(double a, double b, bool extended = false)
{
    if (std::isnan(a) || std::isnan(b) || std::isinf(a) || std::isinf(b))
        return std::nullopt;
    if (fpIsZero(b))
        return std::nullopt; // division by zero is exceptional, not trivial
    if (fpExactEq(b, 1.0))
        return Trivial{TrivialKind::DivByOne, a};
    if (fpIsZero(a))
        return Trivial{TrivialKind::ZeroDividend, a / b};
    if (extended) {
        if (fpExactEq(b, -1.0))
            return Trivial{TrivialKind::DivByNegOne, -a};
        if (fpExactEq(a, b))
            return Trivial{TrivialKind::DivBySelf, 1.0};
    }
    return std::nullopt;
}

/** Classify a floating point square root (extended set only). */
inline std::optional<Trivial>
trivialFpSqrt(double a, bool extended = false)
{
    if (!extended)
        return std::nullopt;
    if (fpIsZero(a))
        return Trivial{TrivialKind::SqrtOfZero, a};
    if (fpExactEq(a, 1.0))
        return Trivial{TrivialKind::SqrtOfOne, 1.0};
    return std::nullopt;
}

/** Integer-multiply trivial classification result. */
struct TrivialInt
{
    TrivialKind kind;
    int64_t result;
};

/** Classify an integer multiplication. */
inline std::optional<TrivialInt>
trivialIntMul(int64_t a, int64_t b, bool extended = false)
{
    if (a == 0 || b == 0)
        return TrivialInt{TrivialKind::MulByZero, 0};
    if (a == 1)
        return TrivialInt{TrivialKind::MulByOne, b};
    if (b == 1)
        return TrivialInt{TrivialKind::MulByOne, a};
    if (extended) {
        // Negate through uint64: -INT64_MIN overflows int64 (UB), but
        // the unit's wrap-around product of x * -1 is well defined.
        if (a == -1)
            return TrivialInt{
                TrivialKind::MulByNegOne,
                static_cast<int64_t>(-static_cast<uint64_t>(b))};
        if (b == -1)
            return TrivialInt{
                TrivialKind::MulByNegOne,
                static_cast<int64_t>(-static_cast<uint64_t>(a))};
    }
    return std::nullopt;
}

} // namespace memo

#endif // MEMO_ARITH_TRIVIAL_HH
