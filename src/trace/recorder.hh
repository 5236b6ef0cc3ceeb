/**
 * @file
 * The instrumentation facade workloads use to emit traces.
 *
 * A Recorder plays the role Shade played for the paper: the workload
 * *really computes* (every mul/div/sqrt returns its true result and the
 * kernel's output is correct), and as a side effect each operation is
 * appended to a Trace: the operand values and result of a memoizable
 * operation, the remapped address of a load or store, and only the
 * class of everything else (fp add/subtract, integer ALU, branches).
 *
 * Memory accesses are recorded at cache-line granularity through a
 * first-touch line remapping, which makes traces independent of host
 * heap layout and therefore bit-for-bit reproducible.
 */

#ifndef MEMO_TRACE_RECORDER_HH
#define MEMO_TRACE_RECORDER_HH

#include <cstdint>
#include <unordered_map>

#include "core/aligned.hh"
#include "trace/trace.hh"

namespace memo
{

/** Records the dynamic instruction stream of an instrumented workload. */
class Recorder
{
  public:
    /** @param trace the trace to append to (owned by the caller). */
    explicit Recorder(Trace &trace);

    /** @name Memoizable operations (computed natively and recorded). */
    /// @{
    double mul(double a, double b);
    double div(double a, double b);
    double sqrt(double a);
    double log(double a);
    double sin(double a);
    double cos(double a);
    double exp(double a);
    int64_t imul(int64_t a, int64_t b);
    /// @}

    /** @name Non-memoized bookkeeping instructions. */
    /// @{
    double fadd(double a, double b);
    double fsub(double a, double b);

    /** Record a load of @p ref and return its value. */
    template <typename T>
    T
    load(const T &ref)
    {
        recordMem(InstClass::Load, &ref);
        return ref;
    }

    /** Record a store of @p value into @p ref. */
    template <typename T>
    void
    store(T &ref, T value)
    {
        recordMem(InstClass::Store, &ref);
        ref = value;
    }

    /** Record @p n single-cycle integer ALU instructions. */
    void alu(unsigned n = 1);

    /** Record a branch instruction. */
    void branch();
    /// @}

    Trace &trace() { return trace_; }

  private:
    /** Remap a host address to a deterministic virtual address. */
    uint64_t remap(const void *addr);

    void recordMem(InstClass cls, const void *addr);

    void pushOp(InstClass cls, uint64_t a, uint64_t b, uint64_t result);

    /** Append a record that carries nothing but its class. */
    void pushClass(InstClass cls);

    /** Drop the first-touch IDs of lines freed since the last access. */
    void forgetFreedLines();

    Trace &trace_;
    FreedLines freed;
    std::unordered_map<uint64_t, uint64_t> lineMap; //!< host line -> ID
    uint64_t nextLine = 0;
};

} // namespace memo

#endif // MEMO_TRACE_RECORDER_HH
