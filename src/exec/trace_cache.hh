/**
 * @file
 * Process-wide cache of immutable, shared traces.
 *
 * Trace generation (running an instrumented kernel over an image) is
 * the expensive, serial part of every reproduction harness, and the
 * same (workload, image, crop) trace is needed by many measurement
 * points: every table configuration of a sweep, every latency preset
 * of the speedup tables, and both the baseline and memoized cycle
 * runs. The cache generates each trace exactly once — concurrent
 * requests for the same key block on a per-entry guard while one
 * thread generates — and hands out shared read-only instances that
 * every worker can replay lock-free.
 *
 * Entries are evicted least-recently-used once the cached bytes
 * exceed a budget (default 768 MiB, override with the
 * MEMO_TRACE_CACHE_MB environment variable, parsed as
 * --trace-cache-budget is: anything but a positive count that fits
 * 32 bits throws naming the variable); outstanding shared_ptr
 * holders keep evicted traces alive, so eviction only ever costs a
 * regeneration.
 *
 * With a spill directory configured (setSpillDir() or the
 * MEMO_TRACE_SPILL_DIR environment variable) the cache gains a disk
 * tier: evicted traces are written to a content-addressed SpillStore
 * (trace/spill.hh; format in docs/TRACE_FORMAT.md) and misses try an
 * admit-from-disk decode before running the generator. Decode is
 * bit-exact, so results are identical whichever tier serves a trace;
 * any disk defect (SpillError) falls back to regeneration and bumps
 * the spillErrors counter. Without a spill directory behaviour is
 * exactly the RAM-only cache described above.
 */

#ifndef MEMO_EXEC_TRACE_CACHE_HH
#define MEMO_EXEC_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/annotations.hh"

#include "trace/spill.hh"
#include "trace/trace.hh"

namespace memo::obs
{
class StatsRegistry;
} // namespace memo::obs

namespace memo::exec
{

/** Identity of a cached trace. */
struct TraceKey
{
    std::string workload; //!< kernel or scientific workload name
    std::string image;    //!< input image name; empty for sci workloads
    int crop = 0;         //!< centre-crop dimension; 0 when unused

    bool
    operator==(const TraceKey &o) const
    {
        return crop == o.crop && workload == o.workload &&
               image == o.image;
    }

    struct Hash
    {
        size_t
        operator()(const TraceKey &k) const
        {
            size_t h = std::hash<std::string>{}(k.workload);
            h = h * 0x9e3779b97f4a7c15ull ^
                std::hash<std::string>{}(k.image);
            return h * 0x9e3779b97f4a7c15ull ^
                   static_cast<size_t>(k.crop);
        }
    };
};

/**
 * Stable textual identity of @p key in the spill store; the crop is
 * part of the trace's content, the table configuration is not, so
 * sweep points differing only in config share one spilled trace.
 */
inline std::string
spillKeyOf(const TraceKey &key)
{
    return key.workload + "|" + key.image + "|" +
           std::to_string(key.crop);
}

/** LRU-bounded map from TraceKey to a shared immutable Trace. */
class TraceCache
{
  public:
    using Generator = std::function<Trace()>;

    /** @param budget_bytes 0 = default (env override / 768 MiB). */
    explicit TraceCache(size_t budget_bytes = 0);

    /** The process-wide instance used by the analysis helpers. */
    static TraceCache &instance();

    /**
     * Return the trace for @p key, running @p gen to produce it if it
     * is not cached. @p gen runs at most once per cached lifetime of
     * the key, even under concurrent lookups.
     */
    std::shared_ptr<const Trace> get(const TraceKey &key,
                                     const Generator &gen);

    /**
     * Point the disk tier at @p dir (created if needed); an empty
     * string disables spilling. Traces already on disk under @p dir
     * are admitted on miss. Not thread-safe against concurrent get()
     * — configure before the sweep starts, as the CLI flags and the
     * MEMO_TRACE_SPILL_DIR environment variable do.
     */
    void setSpillDir(const std::string &dir);

    /** The configured spill directory; empty when disabled. */
    std::string spillDir() const;

    /**
     * Replace the resident-bytes budget (0 = back to the default /
     * MEMO_TRACE_CACHE_MB). Takes effect at the next insertion; it
     * does not evict already-resident entries by itself.
     */
    void setBudgetBytes(size_t budget_bytes);

    /** Number of resident entries. */
    size_t entries() const;

    /** Bytes held by resident traces. */
    size_t residentBytes() const;

    /** Times a generator was invoked. */
    uint64_t generated() const { return generated_.load(); }

    /**
     * Lookups not served from a resident entry: every miss either
     * admits the trace from the disk tier or runs the generator
     * exactly once.
     */
    uint64_t misses() const { return generated_.load() + admits_.load(); }

    /** Lookups served from a resident entry. */
    uint64_t hits() const { return hits_.load(); }

    /** Entries dropped by the LRU budget walk (not by clear()). */
    uint64_t evictions() const { return evictions_.load(); }

    /** Evicted traces written to the disk tier. */
    uint64_t spills() const { return spills_.load(); }

    /** Misses served by decoding a spilled trace (generator skipped). */
    uint64_t admits() const { return admits_.load(); }

    /** Encoded bytes written by spills (manifests + new chunks). */
    uint64_t spilledBytes() const { return spilledBytes_.load(); }

    /**
     * Encoded bytes a spill did NOT write because identical chunks
     * were already in the store (content-addressed dedup).
     */
    uint64_t sharedBytes() const { return sharedBytes_.load(); }

    /** Disk-tier defects survived by falling back to regeneration. */
    uint64_t spillErrors() const { return spillErrors_.load(); }

    /**
     * Fold the cache counters into @p reg as gauges
     * (exec.traceCache.{hits,misses,evictions,entries,residentBytes}
     * plus the disk tier's {spills,admits,spilledBytes,sharedBytes,
     * spillErrors}). Gauges take the max, so repeated publication
     * is idempotent. Eviction order is scheduling-dependent under
     * concurrency, so callers must keep these out of registries whose
     * snapshots feed determinism diffs (memo-report's stdout summary
     * and the --profile paths are the intended consumers).
     */
    void publishStats(obs::StatsRegistry &reg) const;

    /**
     * Drop every resident entry (shared holders stay valid). The
     * disk tier is untouched: spilled traces stay admittable, which
     * is what lets a capped rerun reuse the previous run's chunks.
     */
    void clear();

  private:
    /** One cached trace; `m` serializes its (single) generation. */
    struct Slot
    {
        Mutex m;
        std::shared_ptr<const Trace> trace MEMO_GUARDED_BY(m);
        /// Size of `trace` once generated. Transitions 0 -> n exactly
        /// once, with BOTH this slot's `m` and the cache mutex held,
        /// so the eviction walk (cache mutex only) always reads a
        /// value whose totalBytes contribution has been accounted.
        std::atomic<size_t> bytes{0};
    };

    using LruList =
        std::list<std::pair<TraceKey, std::shared_ptr<Slot>>>;
    using Victims =
        std::vector<std::pair<TraceKey, std::shared_ptr<Slot>>>;

    /** Called with `m` held; returns the entries it dropped. */
    Victims evictOverBudget(const std::shared_ptr<Slot> &keep)
        MEMO_REQUIRES(m);

    /** Writes victims to the disk tier; takes no cache-wide locks
     *  (only each victim's slot mutex, briefly). */
    void spillVictims(const std::shared_ptr<SpillStore> &spill,
                      const Victims &victims) MEMO_EXCLUDES(m);

    mutable Mutex m;
    LruList lru MEMO_GUARDED_BY(m); //!< front = most recently used
    std::unordered_map<TraceKey, LruList::iterator, TraceKey::Hash> map
        MEMO_GUARDED_BY(m);
    size_t totalBytes MEMO_GUARDED_BY(m) = 0;
    size_t budget MEMO_GUARDED_BY(m);
    std::shared_ptr<SpillStore> spill_
        MEMO_GUARDED_BY(m); //!< null = disk tier off
    std::atomic<uint64_t> generated_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> evictions_{0};
    std::atomic<uint64_t> spills_{0};
    std::atomic<uint64_t> admits_{0};
    std::atomic<uint64_t> spilledBytes_{0};
    std::atomic<uint64_t> sharedBytes_{0};
    std::atomic<uint64_t> spillErrors_{0};
};

} // namespace memo::exec

#endif // MEMO_EXEC_TRACE_CACHE_HH
