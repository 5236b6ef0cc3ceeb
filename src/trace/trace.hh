/**
 * @file
 * Dynamic instruction trace container and summary statistics.
 *
 * The trace is backed by a compact structure-of-arrays TraceStore
 * (see trace_store.hh); iteration and indexing materialize
 * Instruction values on the fly, so replay loops stream far less
 * memory than an array-of-structs layout would.
 */

#ifndef MEMO_TRACE_TRACE_HH
#define MEMO_TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <utility>

#include "trace/instruction.hh"
#include "trace/trace_store.hh"

namespace memo
{

/** Per-class dynamic instruction counts. */
struct OpMix
{
    std::array<uint64_t, numInstClasses> counts{};

    uint64_t
    operator[](InstClass cls) const
    {
        return counts[static_cast<unsigned>(cls)];
    }

    uint64_t &
    operator[](InstClass cls)
    {
        return counts[static_cast<unsigned>(cls)];
    }

    /** Total dynamic instruction count. */
    uint64_t total() const;

    /** Fraction of the dynamic instructions in class @p cls. */
    double fraction(InstClass cls) const;
};

/** A dynamic instruction trace produced by an instrumented workload. */
class Trace
{
  public:
    using const_iterator = TraceStore::const_iterator;

    Trace() = default;

    /** A trace over an already built store (see TraceStore::adopt). */
    explicit Trace(TraceStore store) : store_(std::move(store)) {}

    void reserve(size_t n) { store_.reserve(n); }

    void push(const Instruction &inst) { store_.push(inst); }

    /** Materialize record @p i (fields unused by its class are 0). */
    Instruction operator[](size_t i) const { return store_.get(i); }

    const_iterator begin() const { return store_.begin(); }
    const_iterator end() const { return store_.end(); }

    size_t size() const { return store_.size(); }
    bool empty() const { return store_.empty(); }
    void clear() { store_.clear(); }

    /** Bytes held by the trace data (excluding slack capacity). */
    size_t memoryBytes() const { return store_.memoryBytes(); }

    /** The column store backing this trace. */
    const TraceStore &store() const { return store_; }

    /** Count dynamic instructions per class. */
    OpMix mix() const;

  private:
    TraceStore store_;
};

} // namespace memo

#endif // MEMO_TRACE_TRACE_HH
