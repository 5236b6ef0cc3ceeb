/**
 * @file
 * The instrumentation facade workloads use to emit traces.
 *
 * A Recorder plays the role Shade played for the paper: the workload
 * *really computes* (every mul/div/sqrt returns its true result and the
 * kernel's output is correct), and as a side effect each operation's
 * operand values, result, and a stable static identity (synthesized
 * from the call site via std::source_location, standing in for the PC)
 * are appended to a Trace.
 *
 * Memory accesses are recorded at cache-line granularity through a
 * first-touch line remapping, which makes traces independent of host
 * heap layout and therefore bit-for-bit reproducible.
 */

#ifndef MEMO_TRACE_RECORDER_HH
#define MEMO_TRACE_RECORDER_HH

#include <cstdint>
#include <source_location>
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
    double mul(double a, double b, std::source_location loc =
                                       std::source_location::current());
    double div(double a, double b, std::source_location loc =
                                       std::source_location::current());
    double sqrt(double a, std::source_location loc =
                              std::source_location::current());
    double log(double a, std::source_location loc =
                             std::source_location::current());
    double sin(double a, std::source_location loc =
                             std::source_location::current());
    double cos(double a, std::source_location loc =
                             std::source_location::current());
    double exp(double a, std::source_location loc =
                             std::source_location::current());
    int64_t imul(int64_t a, int64_t b, std::source_location loc =
                                           std::source_location::current());
    /// @}

    /** @name Non-memoized bookkeeping instructions. */
    /// @{
    double fadd(double a, double b, std::source_location loc =
                                        std::source_location::current());
    double fsub(double a, double b, std::source_location loc =
                                        std::source_location::current());

    /** Record a load of @p ref and return its value. */
    template <typename T>
    T
    load(const T &ref, std::source_location loc =
                           std::source_location::current())
    {
        recordMem(InstClass::Load, &ref, loc);
        return ref;
    }

    /** Record a store of @p value into @p ref. */
    template <typename T>
    void
    store(T &ref, T value, std::source_location loc =
                               std::source_location::current())
    {
        recordMem(InstClass::Store, &ref, loc);
        ref = value;
    }

    /** Record @p n single-cycle integer ALU instructions. */
    void alu(unsigned n = 1, std::source_location loc =
                                 std::source_location::current());

    /** Record a branch instruction. */
    void branch(std::source_location loc =
                    std::source_location::current());
    /// @}

    Trace &trace() { return trace_; }

  private:
    /** Synthesize a stable 32-bit PC for a source location. */
    uint32_t pcOf(const std::source_location &loc);

    /** Remap a host address to a deterministic virtual address. */
    uint64_t remap(const void *addr);

    void recordMem(InstClass cls, const void *addr,
                   const std::source_location &loc);

    void pushOp(InstClass cls, uint64_t a, uint64_t b, uint64_t result,
                const std::source_location &loc);

    /** Drop the first-touch IDs of lines freed since the last access. */
    void forgetFreedLines();

    Trace &trace_;
    // Pointer-keyed, but a pure lookup cache: the stored value is the
    // FNV-1a hash of the string contents and the map is never
    // iterated, so addresses never reach the trace.
    std::unordered_map<const char *, uint32_t> fileHashes; // NOLINT(memo-DET-003)
    FreedLines freed;
    std::unordered_map<uint64_t, uint64_t> lineMap; //!< host line -> ID
    uint64_t nextLine = 0;
};

} // namespace memo

#endif // MEMO_TRACE_RECORDER_HH
