#include "tracer.hh"

#include <cassert>
#include <ostream>

namespace memo::obs
{

EventTracer::EventTracer(size_t capacity, uint64_t sample_period)
    : capacity_(capacity), period_(sample_period ? sample_period : 1)
{
    assert(capacity > 0);
}

void
EventTracer::onTableEvent(Operation op, TableEventKind kind,
                          uint32_t set, uint64_t stamp)
{
    kind_counts_[static_cast<unsigned>(kind)]++;
    offered_++;
    Ring &r = rings_[static_cast<unsigned>(op)];
    if (r.offered++ % period_ != 0)
        return;
    if (r.records.empty())
        r.records.resize(capacity_);
    r.records[r.recorded++ % capacity_] = TraceRecord{stamp, set, op, kind};
    recorded_++;
}

size_t
EventTracer::size() const
{
    size_t n = 0;
    for (const Ring &r : rings_)
        n += r.size(capacity_);
    return n;
}

const TraceRecord &
EventTracer::at(size_t i) const
{
    assert(i < size());
    const Ring *r = rings_;
    for (; i >= r->size(capacity_); r++)
        i -= r->size(capacity_);
    // Once wrapped, the oldest retained record sits right after the
    // write position.
    size_t base = r->recorded > capacity_ ? r->recorded % capacity_ : 0;
    return r->records[(base + i) % capacity_];
}

void
EventTracer::clear()
{
    for (Ring &r : rings_)
        r.offered = r.recorded = 0;
    offered_ = recorded_ = 0;
    for (auto &c : kind_counts_)
        c = 0;
}

void
EventTracer::appendEventsJson(std::ostream &os, bool &first) const
{
    // Trace Event Format: instant events ("ph":"i"), one pid per
    // process, one tid per operation class so each unit renders as its
    // own track; the access stamp serves as the microsecond timestamp.
    for (size_t i = 0; i < size(); i++) {
        const TraceRecord &r = at(i);
        os << (first ? "\n " : ",\n ") << "{\"name\": \""
           << tableEventName(r.kind) << "\", \"cat\": \""
           << operationName(r.op) << "\", \"ph\": \"i\", \"s\": \"t\""
           << ", \"ts\": " << r.stamp << ", \"pid\": 1, \"tid\": "
           << static_cast<unsigned>(r.op) << ", \"args\": {\"set\": "
           << r.set << "}}";
        first = false;
    }
}

void
EventTracer::exportChromeTrace(std::ostream &os) const
{
    os << "{\"traceEvents\": [";
    bool first = true;
    appendEventsJson(os, first);
    os << "\n],\n\"metadata\": {\"offered\": " << offered_
       << ", \"recorded\": " << recorded_ << ", \"dropped\": "
       << dropped() << ", \"samplePeriod\": " << period_ << "}}\n";
}

} // namespace memo::obs
