#include "reuse.hh"

#include <algorithm>
#include <utility>

namespace memo
{

namespace
{

/** Fenwick tree counting currently-live stack positions. */
class Fenwick
{
  public:
    explicit Fenwick(size_t n) : bit(n + 1, 0) {}

    void
    add(size_t i, int delta)
    {
        for (i++; i < bit.size(); i += i & (~i + 1))
            bit[i] += delta;
    }

    /** Sum of [0, i]. */
    int64_t
    sum(size_t i) const
    {
        int64_t s = 0;
        for (i++; i > 0; i -= i & (~i + 1))
            s += bit[i];
        return s;
    }

  private:
    std::vector<int64_t> bit;
};

/** What stackDistances() reports for a trivial access and for a
 *  first touch; every other distance is at least 1. */
constexpr uint64_t kTrivialDistance = 0;
constexpr uint64_t kColdDistance = ~uint64_t{0};

/**
 * The LRU stack distance of each access of @p keys, in order, passed
 * to @p visit: the number of distinct ids touched since the id's
 * previous touch, plus one (so 1 is an immediate repeat). A trivial
 * access is reported as kTrivialDistance and a first touch as
 * kColdDistance. Ids are dense in order of first appearance, so an id
 * is new exactly when it equals the count of ids seen so far.
 * O(n log n): last-touch positions and a Fenwick tree over the live
 * positions of the non-trivial accesses.
 */
template <typename Visit>
void
stackDistances(const AccessKeys &keys, Visit &&visit)
{
    Fenwick live(keys.size());
    std::vector<uint32_t> last; // position of each id's latest touch
    uint32_t t = 0;             // position among non-trivial accesses
    for (const AccessKey &k : keys) {
        if (k.id == kTrivialKey) {
            visit(kTrivialDistance);
            continue;
        }
        if (k.id == last.size()) {
            visit(kColdDistance);
            last.push_back(t);
        } else {
            uint32_t prev = last[k.id];
            // Distinct ids touched strictly between the touches.
            int64_t between = live.sum(t) - live.sum(prev);
            visit(static_cast<uint64_t>(between) + 1);
            live.add(prev, -1);
            last[k.id] = t;
        }
        live.add(t, +1);
        t++;
    }
}

} // anonymous namespace

ReuseProfile::ReuseProfile(std::vector<uint64_t> histogram,
                           uint64_t cold_)
    : hist(std::move(histogram)), cold(cold_)
{
    total = cold;
    for (uint64_t c : hist)
        total += c;
}

double
ReuseProfile::predictedHitRatio(unsigned entries) const
{
    if (total == 0)
        return 0.0;
    uint64_t hits = 0;
    // Position d+1 <= entries, and the overflow bin never hits.
    size_t limit = std::min<size_t>(entries,
                                    hist.size() > 0 ? hist.size() - 1
                                                    : 0);
    for (size_t d = 0; d < limit; d++)
        hits += hist[d];
    return static_cast<double>(hits) / static_cast<double>(total);
}

unsigned
ReuseProfile::entriesForHitRatio(double target) const
{
    for (unsigned n = 1; n < hist.size(); n++) {
        if (predictedHitRatio(n) >= target)
            return n;
    }
    return 0;
}

ReuseProfile
reuseProfile(const Trace &trace, Operation op, unsigned max_distance)
{
    // hist[d] counts stack distance d+1; the last bin takes the rest.
    std::vector<uint64_t> hist(static_cast<size_t>(max_distance) + 1,
                               0);
    uint64_t cold = 0;
    stackDistances(trace.store().accessKeys(instClassOf(op)),
                   [&](uint64_t d) {
                       if (d == kColdDistance)
                           cold++;
                       else if (d != kTrivialDistance)
                           hist[std::min<uint64_t>(d - 1, max_distance)]++;
                   });
    return ReuseProfile(std::move(hist), cold);
}

std::vector<ReuseWindow>
windowedReuse(const Trace &trace, Operation op, uint64_t window,
              unsigned short_distance)
{
    if (window == 0)
        window = 1;
    // The key stream is the presented access stream: trivial accesses
    // keep their positions, so window k covers the same accesses as
    // the table's PhaseWindow k.
    const AccessKeys &keys = trace.store().accessKeys(instClassOf(op));
    std::vector<ReuseWindow> out(keys.empty()
                                     ? 0
                                     : (keys.size() - 1) / window + 1);
    size_t p = 0;
    stackDistances(keys, [&](uint64_t d) {
        ReuseWindow &w = out[p++ / window];
        w.accesses++;
        if (d == kTrivialDistance)
            w.trivial++;
        else if (d == kColdDistance)
            w.cold++;
        else if (d <= short_distance)
            w.shortReuse++;
        else
            w.longReuse++;
    });
    return out;
}

std::vector<HotPair>
hottestPairs(const Trace &trace, Operation op, size_t k)
{
    const InstClass cls = instClassOf(op);
    const AccessKeys &keys = trace.store().accessKeys(cls);
    const TraceStore::ClassColumns &col = trace.store().classColumns(cls);

    // One slot per id, in order of first appearance; each id's first
    // access gives its operands.
    std::vector<HotPair> pairs;
    for (size_t i = 0; i < keys.size(); i++) {
        const uint32_t id = keys[i].id;
        if (id == kTrivialKey)
            continue;
        if (id == pairs.size()) {
            // The table's canonical tag order (MemoTable::classify).
            uint64_t a = col.a[i], b = col.b[i];
            if (commutableBits(op, a, b) && b < a)
                std::swap(a, b);
            pairs.push_back({a, b, 0});
        }
        pairs[id].count++;
    }

    size_t top = std::min(k, pairs.size());
    // Ties on count are broken by operand value, so the report's order
    // does not depend on the order ids were handed out.
    std::partial_sort(pairs.begin(), pairs.begin() +
                                         static_cast<long>(top),
                      pairs.end(),
                      [](const HotPair &x, const HotPair &y) {
                          if (x.count != y.count)
                              return x.count > y.count;
                          if (x.aBits != y.aBits)
                              return x.aBits < y.aBits;
                          return x.bBits < y.bBits;
                      });
    pairs.resize(top);
    return pairs;
}

} // namespace memo
