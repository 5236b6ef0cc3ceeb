#include "phase.hh"

#include <cassert>
#include <ostream>
#include <sstream>

namespace memo::obs
{

namespace
{

/** Every memoizable operation, in enum (and collection) order. */
constexpr Operation kAllOps[] = {
    Operation::IntMul, Operation::FpMul,  Operation::FpDiv,
    Operation::FpSqrt, Operation::FpLog,  Operation::FpSin,
    Operation::FpCos,  Operation::FpExp,
};

/** Exact permille of num/den, 0 when den is 0 (integer arithmetic). */
uint64_t
permille(uint64_t num, uint64_t den)
{
    return den ? num * 1000 / den : 0;
}

} // anonymous namespace

PhaseScope::PhaseScope(MemoBank &bank, uint64_t window, bool per_set)
    : bank_(bank)
{
    for (Operation op : kAllOps) {
        if (bank_.table(op))
            ops_.push_back(op);
    }
    // The tables keep pointers into accums_: size it exactly up front
    // so no later push_back can reallocate under them.
    accums_.reserve(ops_.size());
    for (size_t i = 0; i < ops_.size(); i++)
        accums_.emplace_back(window, per_set);
    for (size_t i = 0; i < ops_.size(); i++)
        bank_.table(ops_[i])->setPhaseAccum(&accums_[i]);
}

PhaseScope::~PhaseScope()
{
    for (Operation op : ops_) {
        if (MemoTable *t = bank_.table(op))
            t->setPhaseAccum(nullptr);
    }
}

void
PhaseScope::finalize()
{
    for (Operation op : ops_)
        bank_.table(op)->finalizePhases();
}

std::vector<PhaseProfile>
PhaseScope::profiles() const
{
    std::vector<PhaseProfile> out;
    out.reserve(ops_.size());
    for (size_t i = 0; i < ops_.size(); i++) {
        const MemoTable *t = bank_.table(ops_[i]);
        PhaseProfile p;
        p.op = ops_[i];
        p.window = accums_[i].window();
        p.entries = t->config().infinite ? 0 : t->config().entries;
        p.ways = t->config().infinite ? 0 : t->config().ways;
        p.rows = accums_[i].rows();
        // Unflatten the accumulator's stride-packed per-set counts
        // (cold harvest path; the flat layout keeps allocation off
        // the replay path).
        unsigned stride = accums_[i].setStride();
        const std::vector<uint32_t> &flat = accums_[i].setOccupancy();
        if (stride > 0) {
            p.setOccupancy.reserve(flat.size() / stride);
            for (size_t at = 0; at + stride <= flat.size();
                 at += stride)
                p.setOccupancy.emplace_back(flat.begin() + at,
                                            flat.begin() + at +
                                                stride);
        }
        out.push_back(std::move(p));
    }
    return out;
}

std::string
renderPhasesJson(const std::vector<PhaseProfile> &profiles,
                 std::string_view label)
{
    std::ostringstream os;
    os << "{\n  \"memoPhasesVersion\": 1,\n  \"label\": \"" << label
       << "\",\n  \"tables\": [";
    bool first_table = true;
    for (const PhaseProfile &p : profiles) {
        os << (first_table ? "\n" : ",\n");
        first_table = false;
        os << "    {\"op\": \"" << operationName(p.op)
           << "\", \"window\": " << p.window << ", \"entries\": "
           << p.entries << ", \"ways\": " << p.ways
           << ", \"savedCyclesPerHit\": " << p.savedCyclesPerHit
           << ",\n     \"windows\": [";
        bool first_row = true;
        for (const PhaseWindow &w : p.rows) {
            os << (first_row ? "\n" : ",\n");
            first_row = false;
            const MemoStats &s = w.stats;
            os << "      {\"start\": " << w.start << ", \"len\": "
               << w.length << ", \"lookups\": " << s.lookups
               << ", \"hits\": " << s.hits << ", \"trivialHits\": "
               << s.trivialHits << ", \"misses\": " << s.misses
               << ", \"insertions\": " << s.insertions
               << ", \"evictions\": " << s.evictions
               << ", \"trivialBypassed\": " << s.trivialBypassed
               << ", \"parityMisses\": " << s.parityMisses
               << ", \"occupancy\": " << w.occupancy
               << ", \"conflictMisses\": " << w.conflictMisses()
               << ", \"capacityMisses\": " << w.capacityMisses()
               << ", \"hitPermille\": "
               << permille(s.allHits(), s.lookups)
               << ", \"savedCycles\": "
               << s.allHits() * p.savedCyclesPerHit << "}";
        }
        os << (first_row ? "]" : "\n     ]");
        if (!p.setOccupancy.empty()) {
            os << ",\n     \"setOccupancy\": [";
            for (size_t r = 0; r < p.setOccupancy.size(); r++) {
                os << (r ? ",\n      [" : "\n      [");
                for (size_t set = 0; set < p.setOccupancy[r].size();
                     set++)
                    os << (set ? "," : "") << p.setOccupancy[r][set];
                os << "]";
            }
            os << "\n     ]";
        }
        os << "}";
    }
    os << (first_table ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

void
appendCounterEventsJson(std::ostream &os, bool &first,
                        const std::vector<PhaseProfile> &profiles)
{
    // Trace Event Format counter events: same pid and per-operation
    // tid as EventTracer::appendEventsJson, the window's starting
    // access stamp as the microsecond timestamp. One event carries
    // all series of one window, which chrome://tracing renders as a
    // stacked counter track per operation.
    for (const PhaseProfile &p : profiles) {
        for (const PhaseWindow &w : p.rows) {
            const MemoStats &s = w.stats;
            os << (first ? "\n " : ",\n ") << "{\"name\": \"phase "
               << operationName(p.op) << "\", \"ph\": \"C\", \"ts\": "
               << w.start << ", \"pid\": 1, \"tid\": "
               << static_cast<unsigned>(p.op)
               << ", \"args\": {\"hitPermille\": "
               << permille(s.allHits(), s.lookups)
               << ", \"occupancy\": " << w.occupancy
               << ", \"evictions\": " << s.evictions << "}}";
            first = false;
        }
    }
}

void
publishPhases(StatsRegistry &registry,
              const std::vector<PhaseProfile> &profiles)
{
    for (const PhaseProfile &p : profiles) {
        std::string prefix =
            "phase." + std::string(operationName(p.op)) + ".";
        TimeSeries lookups, hits, misses, insertions, evictions;
        TimeSeries occupancy, hit_permille, saved;
        Histogram window_hits; // log2 buckets of per-window hits
        for (size_t i = 0; i < p.rows.size(); i++) {
            const PhaseWindow &w = p.rows[i];
            const MemoStats &s = w.stats;
            lookups.add(i, s.lookups);
            hits.add(i, s.allHits());
            misses.add(i, s.misses);
            insertions.add(i, s.insertions);
            evictions.add(i, s.evictions);
            occupancy.add(i, w.occupancy);
            hit_permille.add(i, permille(s.allHits(), s.lookups));
            saved.add(i, s.allHits() * p.savedCyclesPerHit);
            window_hits.record(s.allHits());
        }
        registry.mergeSeries(prefix + "lookups", lookups);
        registry.mergeSeries(prefix + "hits", hits);
        registry.mergeSeries(prefix + "misses", misses);
        registry.mergeSeries(prefix + "insertions", insertions);
        registry.mergeSeries(prefix + "evictions", evictions);
        registry.mergeSeries(prefix + "occupancy", occupancy);
        registry.mergeSeries(prefix + "hitPermille", hit_permille);
        registry.mergeSeries(prefix + "savedCycles", saved);
        registry.mergeHistogram(prefix + "windowHits", window_hits);
    }
}

} // namespace memo::obs
