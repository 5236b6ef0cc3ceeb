/**
 * @file
 * Bit-level models of the iterative computation units a MEMO-TABLE sits
 * next to.
 *
 * The paper's premise is that division (and to a lesser degree
 * multiplication) is computed by iterative hardware algorithms whose
 * latency a table hit can bypass. These models compute IEEE-754 round-to-
 * nearest-even correct results for normal operands using digit
 * recurrences over the 53-bit significands, and report the cycle count
 * the recurrence would take for a given radix. They serve two purposes:
 *
 *  1. They ground the latency presets (Table 1): a radix-4 SRT divider
 *     with a few cycles of unpack/round overhead lands in the 28-31
 *     cycle range of the Alpha 21164 / PPC 604e / PA 8000.
 *  2. They are the "conventional computation" that runs in parallel with
 *     a MEMO-TABLE lookup in the simulator's EX stage.
 *
 * Non-finite or subnormal operands fall back to native arithmetic (the
 * `exceptional` flag is set and the fixed overhead is charged); the
 * workloads in this repo operate on normal values.
 */

#ifndef MEMO_ARITH_UNITS_HH
#define MEMO_ARITH_UNITS_HH

#include <cstdint>

namespace memo
{

/** Result of running an iterative unit: value plus timing. */
struct UnitOutcome
{
    double value;      //!< correctly rounded result
    unsigned cycles;   //!< latency of this operation in cycles
    bool exceptional;  //!< operands were not normal; native fallback used
};

/**
 * An SRT-style subtractive divider.
 *
 * Produces @ref quotientBits quotient bits at @ref bitsPerCycle bits per
 * cycle (radix 2^bitsPerCycle), plus a fixed overhead for unpacking,
 * normalization and rounding.
 */
class SrtDivider
{
  public:
    /**
     * @param bits_per_cycle quotient bits retired per cycle (1 = radix-2,
     *        2 = radix-4, 4 = radix-16 ...)
     * @param overhead_cycles fixed unpack/round overhead
     */
    explicit SrtDivider(unsigned bits_per_cycle = 2,
                        unsigned overhead_cycles = 3);

    /** Divide a by b. */
    UnitOutcome divide(double a, double b) const;

    /** Latency of a non-exceptional division. */
    unsigned latency() const;

    /** Number of quotient bits retired (mantissa + guard). */
    static constexpr unsigned quotientBits = 54;

  private:
    unsigned bitsPerCycle;
    unsigned overheadCycles;
};

/**
 * A sequential (Booth-recoded) multiplier.
 *
 * Modern multipliers are trees with a short fixed latency; this model
 * exposes both flavors: iterative timing (bits/cycle) for the historical
 * perspective and a fixed pipeline latency via bitsPerCycle large enough
 * to cover the significand in the desired number of cycles.
 */
class SequentialMultiplier
{
  public:
    /**
     * @param bits_per_cycle multiplier bits consumed per cycle
     * @param overhead_cycles fixed unpack/round overhead
     */
    explicit SequentialMultiplier(unsigned bits_per_cycle = 18,
                                  unsigned overhead_cycles = 1);

    /** Multiply a by b. */
    UnitOutcome multiply(double a, double b) const;

    /** Latency of a non-exceptional multiplication. */
    unsigned latency() const;

  private:
    unsigned bitsPerCycle;
    unsigned overheadCycles;
};

/**
 * A restoring digit-recurrence square root unit (one result bit per
 * cycle per radix step), the classic companion of an SRT divider.
 */
class DigitRecurrenceSqrt
{
  public:
    explicit DigitRecurrenceSqrt(unsigned bits_per_cycle = 2,
                                 unsigned overhead_cycles = 3);

    /** Square root of a. */
    UnitOutcome sqrt(double a) const;

    /** Latency of a non-exceptional square root. */
    unsigned latency() const;

  private:
    unsigned bitsPerCycle;
    unsigned overheadCycles;
};

} // namespace memo

#endif // MEMO_ARITH_UNITS_HH
