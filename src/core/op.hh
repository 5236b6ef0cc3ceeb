/**
 * @file
 * Memoizable operation kinds.
 *
 * The paper attaches MEMO-TABLEs to the integer multiplier, the fp
 * multiplier and the fp divider. Its future-work section proposes
 * extending the technique to sqrt, log and the trigonometric functions;
 * those units are implemented here as well (MantissaMode.Sqrt* covers
 * the sqrt table).
 */

#ifndef MEMO_CORE_OP_HH
#define MEMO_CORE_OP_HH

#include <cstdint>
#include <string_view>

#include "arith/fp.hh"

namespace memo
{

/** The operation a MEMO-TABLE memoizes. */
enum class Operation
{
    IntMul, //!< integer multiplication
    FpMul,  //!< floating point multiplication
    FpDiv,  //!< floating point division
    FpSqrt, //!< floating point square root (future-work extension)
    FpLog,  //!< natural logarithm (future-work extension)
    FpSin,  //!< sine (future-work extension)
    FpCos,  //!< cosine (future-work extension)
    FpExp,  //!< exponential (future-work extension)
};

/** True for commutative operations, whose lookups compare both orders. */
constexpr bool
isCommutative(Operation op)
{
    return op == Operation::IntMul || op == Operation::FpMul;
}

/**
 * True when the operand pair may match an entry in swapped order. a*b
 * and b*a are bit-identical except when both operands are NaN: the
 * unit then propagates the *first* operand's payload, so the swapped
 * result differs and such pairs must match in exact order only.
 */
inline bool
commutableBits(Operation op, uint64_t a_bits, uint64_t b_bits)
{
    return isCommutative(op) &&
           !(op == Operation::FpMul && fpIsNaNBits(a_bits) &&
             fpIsNaNBits(b_bits));
}

/** True for single-operand operations. */
constexpr bool
isUnary(Operation op)
{
    switch (op) {
      case Operation::FpSqrt:
      case Operation::FpLog:
      case Operation::FpSin:
      case Operation::FpCos:
      case Operation::FpExp:
        return true;
      default:
        return false;
    }
}

/** True for operations on floating point operands. */
constexpr bool
isFloat(Operation op)
{
    return op != Operation::IntMul;
}

/** Short printable name. */
std::string_view operationName(Operation op);

} // namespace memo

#endif // MEMO_CORE_OP_HH
