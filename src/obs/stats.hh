/**
 * @file
 * Process-wide hierarchical statistics registry.
 *
 * The observability layer of the simulation service: named counters,
 * high-water gauges and fixed-bucket histograms, addressed by dotted
 * hierarchical names ("sim.cpu.cycles", "core.table.fpDiv.hits").
 *
 * Writes go to lock-free per-thread shards: a thread takes a mutex
 * only the first time it touches a registry (to register its shard)
 * and every subsequent update mutates thread-private maps. A snapshot
 * merges all shards into one name-sorted view. Every merge operation
 * is commutative and associative over exact integers (sums for
 * counters, max for gauges, per-bucket sums for histograms), so
 * snapshots are bit-identical regardless of how work was distributed
 * across threads — `--jobs 1` and `--jobs N` sweeps serialize to the
 * same bytes.
 *
 * Instrumented quantities must themselves be per-work-item
 * deterministic (a fixed set of work items, each contributing a fixed
 * delta). Scheduling-dependent quantities (queue depths, lock waits)
 * do not belong in this registry.
 */

#ifndef MEMO_OBS_STATS_HH
#define MEMO_OBS_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/annotations.hh"

namespace memo::obs
{

/**
 * A fixed-bucket histogram of unsigned 64-bit samples.
 *
 * Buckets are defined by a sorted list of inclusive upper edges; a
 * sample lands in the first bucket whose edge is >= the value, or in
 * the implicit overflow bucket past the last edge. The edge list is
 * fixed at construction (no dynamic rebucketing), which is what makes
 * histogram merging a plain per-bucket sum.
 */
class Histogram
{
  public:
    /** Power-of-two latency edges {1, 2, 4, ..., 128}. */
    static const std::vector<uint64_t> &defaultEdges();

    /** A histogram with the default power-of-two edges. */
    Histogram() : Histogram(defaultEdges()) {}

    /** @param upper_edges inclusive upper edges, strictly ascending. */
    explicit Histogram(std::vector<uint64_t> upper_edges);

    /** Record one sample. */
    void record(uint64_t value);

    /** Record @p n samples of @p value; equals n calls of record(value). */
    void record(uint64_t value, uint64_t n);

    /** Add another histogram's counts; edges must match exactly. */
    void merge(const Histogram &other);

    /** The inclusive upper edge of bucket @p i. */
    const std::vector<uint64_t> &edges() const { return edges_; }

    /** Per-bucket counts; counts().back() is the overflow bucket. */
    const std::vector<uint64_t> &counts() const { return counts_; }

    /** Total number of recorded samples. */
    uint64_t total() const { return total_; }

    /** Sum of all recorded samples (for means). */
    uint64_t sum() const { return sum_; }

    /** Samples past the last edge. */
    uint64_t overflow() const { return counts_.back(); }

    /** Mean sample value, or 0 when empty. */
    double mean() const
    {
        return total_ ? static_cast<double>(sum_) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    /**
     * Canonical one-line rendering: `|<=1:5|<=2:0|...|inf:3| n=8
     * sum=123` — stable across platforms, used by Snapshot::serialize.
     */
    std::string serialize() const;

  private:
    std::vector<uint64_t> edges_;
    std::vector<uint64_t> counts_; //!< edges_.size() + 1 (overflow last)
    uint64_t total_ = 0;
    uint64_t sum_ = 0;
};

/**
 * A fixed-point time series: one unsigned 64-bit value per window
 * index over some position axis (for the phase engine, the table
 * access stream sliced into fixed windows — see core/phase.hh).
 *
 * Values are exact integers (callers scale rationals to permille or
 * similar before recording; no floats, so merged series are
 * bit-exact). Merging is an element-wise sum with the longer length
 * winning — commutative and associative, so registry snapshots are
 * jobs-invariant exactly like counters and histograms.
 */
class TimeSeries
{
  public:
    /** An empty series. */
    TimeSeries() = default;

    /** Add @p delta at window @p index, growing with zeros as needed. */
    void add(size_t index, uint64_t delta);

    /** Element-wise add another series (lengths may differ). */
    void merge(const TimeSeries &other);

    /** Per-window values; size() is the highest touched index + 1. */
    const std::vector<uint64_t> &values() const { return values_; }

    /** Number of windows. */
    size_t size() const { return values_.size(); }

    /** Sum of all values. */
    uint64_t total() const;

    /**
     * Canonical one-line rendering: `|5|0|12| n=3 sum=17` — stable
     * across platforms, used by Snapshot::serialize.
     */
    std::string serialize() const;

  private:
    std::vector<uint64_t> values_;
};

/** One merged, name-sorted view of a StatsRegistry. */
struct Snapshot
{
    std::map<std::string, uint64_t> counters;   //!< summed counters
    std::map<std::string, uint64_t> gauges;      //!< high-water gauges
    std::map<std::string, Histogram> histograms; //!< merged histograms
    std::map<std::string, TimeSeries> series;    //!< merged time series

    /**
     * Canonical text rendering, one metric per line, sorted by kind
     * then name. Two snapshots are equal iff their serializations are
     * byte-identical.
     */
    std::string serialize() const;

    /** Counter value, or 0 when absent. */
    uint64_t counter(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
};

/**
 * The registry: a set of named metrics written through per-thread
 * shards.
 *
 * Most code uses the process-wide instance (global()); tests create
 * private instances. Snapshots and reset() assume the registry is
 * quiescent (no concurrent writers) — in this codebase that holds
 * whenever exec::parallelFor has returned, since the pool's wait()
 * synchronizes with its workers.
 */
class StatsRegistry
{
  public:
    StatsRegistry();  //!< An empty registry with no shards yet.
    ~StatsRegistry(); //!< Unregisters the id from thread-local caches.

    StatsRegistry(const StatsRegistry &) = delete;            //!< Shards pin the address.
    StatsRegistry &operator=(const StatsRegistry &) = delete; //!< Shards pin the address.

    /** The process-wide registry. */
    static StatsRegistry &global();

    /** Add @p delta to counter @p name. */
    void add(std::string_view name, uint64_t delta);

    /** Raise gauge @p name to @p value if larger (high-water mark). */
    void gaugeMax(std::string_view name, uint64_t value);

    /**
     * Record @p value into histogram @p name with the default edges.
     * For custom edges, build a Histogram and mergeHistogram() it.
     */
    void recordHistogram(std::string_view name, uint64_t value);

    /** Merge @p h into histogram @p name (created on first use). */
    void mergeHistogram(std::string_view name, const Histogram &h);

    /** Merge @p s into time series @p name (created on first use). */
    void mergeSeries(std::string_view name, const TimeSeries &s);

    /** Merge every shard into one name-sorted snapshot. */
    Snapshot snapshot() const;

    /** Drop all metrics in all shards (requires quiescence). */
    void reset();

  private:
    struct Shard
    {
        std::unordered_map<std::string, uint64_t> counters;
        std::unordered_map<std::string, uint64_t> gauges;
        std::unordered_map<std::string, Histogram> histograms;
        std::unordered_map<std::string, TimeSeries> series;
    };

    /** This thread's shard of this registry (registered on first use). */
    Shard &localShard();

    const uint64_t id_; //!< distinguishes re-allocated registries
    mutable Mutex m_;
    /// Shard ownership; writes through a registered Shard* go to
    /// thread-private state and are lock-free by design (see the file
    /// comment) — only registration and whole-registry folds lock.
    std::vector<std::unique_ptr<Shard>> shards_ MEMO_GUARDED_BY(m_);
};

} // namespace memo::obs

#endif // MEMO_OBS_STATS_HH
