/**
 * @file
 * Fixed-size worker thread pool for the experiment executor.
 *
 * The reproduction sweeps (Figures 3/4, Tables 9-13) are
 * embarrassingly parallel: each (kernel, image, config)
 * point replays an immutable trace through its own private MemoBank.
 * A single process-wide pool, created lazily at its first use, serves
 * every parallelFor()/sweep() call so thread creation is paid once per
 * process instead of once per sweep.
 */

#ifndef MEMO_EXEC_THREAD_POOL_HH
#define MEMO_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.hh"

namespace memo::obs
{
class StatsRegistry;
} // namespace memo::obs

namespace memo::exec
{

/** A fixed set of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 picks defaultJobs(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (fixed for the pool's lifetime). */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /** Enqueue @p task; it runs on some worker thread. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and every worker is idle. */
    void wait();

    /**
     * The default parallelism: the MEMO_JOBS environment variable when
     * set, otherwise hardware_concurrency() (minimum 1). MEMO_JOBS is
     * parsed as --jobs is (cli::envCount): anything but a positive
     * count throws std::runtime_error naming the variable.
     */
    static unsigned defaultJobs();

    /**
     * The process-wide pool used by parallelFor()/sweep(). Sized at
     * max(defaultJobs(), 8) so explicitly requested thread counts up
     * to 8 get real concurrency even on small hosts (idle workers are
     * parked and cost nothing).
     */
    static ThreadPool &shared();

    /**
     * True on a thread currently executing a pool task. Nested
     * parallel constructs run inline in that case, which both avoids
     * queue-wait deadlocks and keeps the work deterministic.
     */
    static bool inWorker();

    /**
     * Per-worker utilization accounting. Task pulls from the shared
     * FIFO are always counted (one mutex-protected increment the
     * worker pays anyway); busy/idle wall time is measured only while
     * the process-wide profiler is enabled (prof::enabled()), so with
     * profiling off the pool performs no clock reads and its behavior
     * is byte-for-byte the pre-instrumentation one.
     */
    struct WorkerStats
    {
        uint64_t tasks = 0;  //!< tasks this worker pulled and ran
        uint64_t busyNs = 0; //!< wall time inside tasks (profiled)
        uint64_t idleNs = 0; //!< wall time waiting for work (profiled)
    };

    /** Snapshot of every worker's accounting. */
    std::vector<WorkerStats> workerStats() const;

    /**
     * Fold worker accounting into @p reg: per-worker gauges
     * (exec.pool.worker<i>.{tasks,busyNs,idleNs}) plus the aggregate
     * exec.pool.{size,tasks,busyNs,idleNs}. Gauges take the max, so
     * repeated publication is idempotent. Scheduling-dependent by
     * nature — callers must not publish into a registry whose
     * snapshots feed determinism diffs (the --profile paths are the
     * only callers).
     */
    void publishUtilization(obs::StatsRegistry &reg) const;

  private:
    void workerLoop(unsigned index) MEMO_EXCLUDES(m);

    /// Built in the constructor, joined in the destructor; both run
    /// single-threaded by contract, so the vector needs no guard.
    std::vector<std::thread> workers MEMO_UNGUARDED;
    mutable Mutex m;
    std::vector<WorkerStats> wstats
        MEMO_GUARDED_BY(m); //!< one slot per worker
    std::deque<std::function<void()>> queue MEMO_GUARDED_BY(m);
    std::condition_variable work_cv;  //!< queue became non-empty / stop
    std::condition_variable idle_cv;  //!< a task finished / queue drained
    size_t active MEMO_GUARDED_BY(m) = 0;  //!< tasks currently executing
    bool stopping MEMO_GUARDED_BY(m) = false;
};

} // namespace memo::exec

#endif // MEMO_EXEC_THREAD_POOL_HH
