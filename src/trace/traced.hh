/**
 * @file
 * A drop-in arithmetic value type that records its operations.
 *
 * Traced lets application code written with ordinary operators feed a
 * Recorder without explicit instrumentation calls:
 *
 * @code
 *   Trace trace;
 *   Recorder rec(trace);
 *   TracedScope scope(rec);
 *   Traced a = 3.0, b = 4.0;
 *   Traced c = memo::sqrt(a * a + b * b); // records 2 muls, 1 add, 1 sqrt
 * @endcode
 *
 * A Traced operation records exactly what the matching Recorder call
 * does.
 */

#ifndef MEMO_TRACE_TRACED_HH
#define MEMO_TRACE_TRACED_HH

#include <cassert>

#include "arith/fp.hh"
#include "trace/recorder.hh"

namespace memo
{

class Traced;

/** Binds a Recorder as the destination for Traced operations. */
class TracedScope
{
  public:
    explicit TracedScope(Recorder &rec);
    ~TracedScope();

    TracedScope(const TracedScope &) = delete;
    TracedScope &operator=(const TracedScope &) = delete;

    /** The recorder Traced operations currently feed, or nullptr. */
    static Recorder *current();

  private:
    Recorder *previous;
};

/** A double whose multiplies/divides/roots are recorded. */
class Traced
{
  public:
    Traced() = default;
    Traced(double v) : v(v) {}

    double value() const { return v; }
    explicit operator double() const { return v; }

    friend Traced
    operator*(Traced a, Traced b)
    {
        return Traced(rec().mul(a.v, b.v));
    }

    friend Traced
    operator/(Traced a, Traced b)
    {
        return Traced(rec().div(a.v, b.v));
    }

    friend Traced
    operator+(Traced a, Traced b)
    {
        return Traced(rec().fadd(a.v, b.v));
    }

    friend Traced
    operator-(Traced a, Traced b)
    {
        return Traced(rec().fsub(a.v, b.v));
    }

    friend Traced operator-(Traced a) { return Traced(-a.v); }

    Traced &operator*=(Traced b) { return *this = *this * b; }
    Traced &operator/=(Traced b) { return *this = *this / b; }
    Traced &operator+=(Traced b) { return *this = *this + b; }
    Traced &operator-=(Traced b) { return *this = *this - b; }

    friend bool operator<(Traced a, Traced b) { return a.v < b.v; }
    friend bool operator>(Traced a, Traced b) { return a.v > b.v; }
    friend bool operator<=(Traced a, Traced b) { return a.v <= b.v; }
    friend bool operator>=(Traced a, Traced b) { return a.v >= b.v; }
    // Traced must mirror plain double semantics exactly so that the
    // traced and untraced kernel variants take identical branches.
    friend bool operator==(Traced a, Traced b) { return fpExactEq(a.v, b.v); }

  private:
    static Recorder &
    rec()
    {
        Recorder *r = TracedScope::current();
        assert(r && "Traced arithmetic outside a TracedScope");
        return *r;
    }

    double v = 0.0;
};

/** Recorded square root of a Traced value. */
inline Traced
sqrt(Traced a)
{
    Recorder *r = TracedScope::current();
    assert(r && "Traced arithmetic outside a TracedScope");
    return Traced(r->sqrt(a.value()));
}

/** Recorded natural logarithm of a Traced value. */
inline Traced
log(Traced a)
{
    Recorder *r = TracedScope::current();
    assert(r && "Traced arithmetic outside a TracedScope");
    return Traced(r->log(a.value()));
}

} // namespace memo

#endif // MEMO_TRACE_TRACED_HH
