#include "thread_pool.hh"

#include <algorithm>
#include <optional>
#include <string>

#include "core/cli_args.hh"
#include "obs/stats.hh"
#include "prof/prof.hh"

namespace memo::exec
{

namespace
{

thread_local bool in_worker = false;

} // anonymous namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultJobs();
    workers.reserve(threads);
    wstats.resize(threads);
    for (unsigned i = 0; i < threads; i++)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lk(m);
        stopping = true;
    }
    work_cv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        MutexLock lk(m);
        queue.push_back(std::move(task));
    }
    work_cv.notify_one();
}

void
ThreadPool::wait()
{
    // Manual predicate loop (not the wait-with-lambda overload): the
    // thread-safety analysis cannot see that a wait predicate runs
    // with the lock held, so the guarded reads live in this scope.
    UniqueLock lk(m);
    while (!(queue.empty() && active == 0))
        idle_cv.wait(lk.native());
}

void
ThreadPool::workerLoop(unsigned index)
{
    in_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            UniqueLock lk(m);
            // Clock reads only while the host profiler is on: with
            // profiling off the wait is exactly the uninstrumented
            // one (determinism contract, see WorkerStats).
            uint64_t w0 = prof::Profiler::global().enabled()
                              ? prof::nowNs()
                              : 0;
            while (!stopping && queue.empty())
                work_cv.wait(lk.native());
            if (w0)
                wstats[index].idleNs += prof::nowNs() - w0;
            if (queue.empty())
                return; // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
            active++;
        }
        uint64_t t0 = prof::Profiler::global().enabled()
                          ? prof::nowNs()
                          : 0;
        task();
        {
            MutexLock lk(m);
            if (t0)
                wstats[index].busyNs += prof::nowNs() - t0;
            wstats[index].tasks++;
            active--;
        }
        idle_cv.notify_all();
    }
}

std::vector<ThreadPool::WorkerStats>
ThreadPool::workerStats() const
{
    MutexLock lk(m);
    return wstats;
}

void
ThreadPool::publishUtilization(obs::StatsRegistry &reg) const
{
    std::vector<WorkerStats> snap = workerStats();
    uint64_t tasks = 0, busy = 0, idle = 0;
    for (size_t i = 0; i < snap.size(); i++) {
        std::string prefix =
            "exec.pool.worker" + std::to_string(i) + ".";
        reg.gaugeMax(prefix + "tasks", snap[i].tasks);
        reg.gaugeMax(prefix + "busyNs", snap[i].busyNs);
        reg.gaugeMax(prefix + "idleNs", snap[i].idleNs);
        tasks += snap[i].tasks;
        busy += snap[i].busyNs;
        idle += snap[i].idleNs;
    }
    reg.gaugeMax("exec.pool.size", snap.size());
    reg.gaugeMax("exec.pool.tasks", tasks);
    reg.gaugeMax("exec.pool.busyNs", busy);
    reg.gaugeMax("exec.pool.idleNs", idle);
}

unsigned
ThreadPool::defaultJobs()
{
    if (std::optional<unsigned> n = cli::envCount<unsigned>("MEMO_JOBS"))
        return *n;
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool &
ThreadPool::shared()
{
    // Internally synchronized singleton (queue mutex + condvar); the
    // determinism contract is carried by parallelFor's index-aligned
    // result slots, not by the pool.
    static ThreadPool pool(std::max(defaultJobs(), 8u)); // NOLINT(memo-CONC-003)
    return pool;
}

bool
ThreadPool::inWorker()
{
    return in_worker;
}

} // namespace memo::exec
