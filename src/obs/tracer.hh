/**
 * @file
 * Sampled, ring-buffered MEMO-TABLE event tracer.
 *
 * An EventTracer attaches to one or more MemoTables (via
 * MemoTable::setHooks) and records their transactions — hit, miss,
 * insert, evict, trivial detections, parity aborts — as fixed-size
 * records carrying the operation class, the set index and the table's
 * access stamp. Memory is strictly bounded: each operation class has
 * its own ring buffer of fixed capacity, and once a ring wraps its
 * oldest records are overwritten. A sampling period of N keeps every
 * Nth event a class offers, so multi-billion-event replays can be
 * traced at bounded cost. Per-class rings keep each table's window
 * independent of the order replayTables() (sim/cpu.hh) replays the
 * tables in, one after another.
 *
 * The retained window exports as Chrome-trace JSON ("Trace Event
 * Format": one instant event per record, one track per operation
 * class), loadable in chrome://tracing or Perfetto.
 *
 * The tracer is deliberately single-threaded: it observes tables that
 * are themselves single-threaded (each sweep worker owns its private
 * MemoBank). Attach one tracer per bank, not one across threads.
 */

#ifndef MEMO_OBS_TRACER_HH
#define MEMO_OBS_TRACER_HH

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/hooks.hh"

namespace memo::obs
{

/** One retained table-transaction record. */
struct TraceRecord
{
    uint64_t stamp;     //!< table access counter at the event
    uint32_t set;       //!< set index (0 for infinite tables)
    Operation op;       //!< operation class of the reporting table
    TableEventKind kind; //!< what happened
};

/** The ring-buffered sampled tracer; implements TableHooks. */
class EventTracer final : public TableHooks
{
  public:
    /**
     * @param capacity ring size in records per operation class
     *        (bounded memory: capacity * sizeof(TraceRecord) bytes,
     *        ~16 B/record, for each class that offers an event)
     * @param sample_period keep every Nth event each class offers
     *        (1 = all)
     */
    explicit EventTracer(size_t capacity = 1 << 16,
                         uint64_t sample_period = 1);

    /** TableHooks entry: count, sample, and maybe retain one event. */
    void onTableEvent(Operation op, TableEventKind kind, uint32_t set,
                      uint64_t stamp) override;

    /** Records currently retained, over all classes. */
    size_t size() const;

    /** Ring capacity in records, per operation class. */
    size_t capacity() const { return capacity_; }

    /** Total events offered by the attached tables. */
    uint64_t offered() const { return offered_; }

    /** Events that passed sampling (>= size() once wrapped). */
    uint64_t recorded() const { return recorded_; }

    /** Sampled-in events lost to ring wraparound. */
    uint64_t dropped() const { return recorded_ - size(); }

    /** Per-event-kind counts over all offered events (not sampled). */
    uint64_t offeredOf(TableEventKind kind) const
    {
        return kind_counts_[static_cast<unsigned>(kind)];
    }

    /**
     * The @p i-th retained record (0 <= i < size()): the classes in
     * Operation order, each class's records oldest first.
     */
    const TraceRecord &at(size_t i) const;

    /** Forget all retained records and counts. */
    void clear();

    /** Write the retained window as Chrome-trace JSON. */
    void exportChromeTrace(std::ostream &os) const;

    /**
     * Append the retained records to an already-open Chrome-trace
     * "traceEvents" array: one instant-event JSON object per record,
     * comma-separated. @p first is the caller's between-objects state —
     * true when nothing has been written to the array yet — and is
     * updated so emission can continue after the call. Used by the
     * host profiler to merge table events and host spans onto one
     * timeline (prof::Profiler::exportChromeTrace).
     */
    void appendEventsJson(std::ostream &os, bool &first) const;

  private:
    /** One operation class's ring, allocated on its first record. */
    struct Ring
    {
        std::vector<TraceRecord> records;
        uint64_t offered = 0;
        uint64_t recorded = 0;

        size_t size(size_t capacity) const
        {
            return static_cast<size_t>(
                std::min<uint64_t>(recorded, capacity));
        }
    };

    /** Operation classes a table can report (core/op.hh). */
    static constexpr unsigned numOps =
        static_cast<unsigned>(Operation::FpExp) + 1;

    size_t capacity_;
    uint64_t period_;
    Ring rings_[numOps];
    uint64_t offered_ = 0;
    uint64_t recorded_ = 0;
    uint64_t kind_counts_[numTableEventKinds] = {};
};

} // namespace memo::obs

#endif // MEMO_OBS_TRACER_HH
