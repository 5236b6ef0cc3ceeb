/**
 * @file
 * Instrumentation hook interface of the MEMO-TABLE.
 *
 * A MemoTable optionally reports every table transaction (hit, miss,
 * insertion, eviction, trivial detection, parity abort) to an attached
 * TableHooks observer. The core layer defines only this interface so
 * that it stays free of any observability dependency; the concrete
 * observer (the sampled ring-buffer obs::EventTracer) lives in
 * src/obs. With no observer attached the cost is a single predictable
 * null-pointer test per event on lookup/update, and one per block on
 * MemoTable::probeBlock.
 */

#ifndef MEMO_CORE_HOOKS_HH
#define MEMO_CORE_HOOKS_HH

#include <cstdint>
#include <string_view>

#include "core/op.hh"

namespace memo
{

/** One kind of MEMO-TABLE transaction reported to TableHooks. */
enum class TableEventKind : uint8_t
{
    Hit,           //!< tag match returned a memoized result
    Miss,          //!< lookup failed (or was untaggable)
    Insert,        //!< result installed on the miss path
    Evict,         //!< a valid entry was overwritten to make room
    TrivialHit,    //!< integrated trivial detector supplied the result
    TrivialBypass, //!< trivial op filtered before reaching the table
    ParityAbort,   //!< hit rejected by the parity check (soft error)
};

/** Number of TableEventKind values (for fixed-size count arrays). */
constexpr unsigned numTableEventKinds = 7;

/** Printable event-kind name ("hit", "miss", ...). */
constexpr std::string_view
tableEventName(TableEventKind kind)
{
    switch (kind) {
      case TableEventKind::Hit:
        return "hit";
      case TableEventKind::Miss:
        return "miss";
      case TableEventKind::Insert:
        return "insert";
      case TableEventKind::Evict:
        return "evict";
      case TableEventKind::TrivialHit:
        return "trivial-hit";
      case TableEventKind::TrivialBypass:
        return "trivial-bypass";
      case TableEventKind::ParityAbort:
        return "parity-abort";
    }
    return "?";
}

/**
 * Observer interface for MEMO-TABLE transactions.
 *
 * @see MemoTable::setHooks
 */
struct TableHooks
{
    virtual ~TableHooks() = default; //!< Polymorphic base.

    /**
     * Called once per reported transaction.
     *
     * @param op    the operation class of the reporting table
     * @param kind  what happened
     * @param set   the set index involved (0 for infinite tables)
     * @param stamp the table's access counter at the event — a
     *        monotone per-table stamp (lookups + bypasses so far),
     *        usable as a logical cycle stamp when replaying a trace
     */
    virtual void onTableEvent(Operation op, TableEventKind kind,
                              uint32_t set, uint64_t stamp) = 0;
};

} // namespace memo

#endif // MEMO_CORE_HOOKS_HH
