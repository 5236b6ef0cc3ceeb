#include "parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>

#include "core/annotations.hh"

namespace memo::exec
{

namespace
{

/** True on a thread running the caller's leg of a parallelFor. */
thread_local bool in_caller_leg = false;

/**
 * How long the caller waits for a pool worker to take one of its legs
 * before it runs a leg itself. Idle workers take a leg within
 * microseconds; only workers that are all busy or blocked miss it.
 */
constexpr std::chrono::milliseconds kLegStartWait{1};

/**
 * One parallelFor call's shared state. Pool legs hold it by
 * shared_ptr: a leg that starts after the caller closed the loop
 * touches nothing but this object, so the caller never waits for a
 * queued leg to start.
 */
struct Loop
{
    Loop(const std::function<void(size_t)> &fn, size_t count,
         size_t block, size_t legs)
        : body(&fn), n(count), grain(block), free_legs(legs)
    {
    }

    const std::function<void(size_t)> *body MEMO_UNGUARDED; //!< set once
    size_t n MEMO_UNGUARDED;     //!< set once, before any leg
    size_t grain MEMO_UNGUARDED; //!< set once, before any leg
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Mutex m;
    std::condition_variable cv; //!< a pool leg started or left
    /** Legs no thread has taken yet; 0 once the caller closed the loop. */
    size_t free_legs MEMO_GUARDED_BY(m);
    size_t active MEMO_GUARDED_BY(m) = 0; //!< pool legs inside run()
    std::exception_ptr error MEMO_GUARDED_BY(m);

    /** True once every index is claimed (or an iteration threw). */
    bool
    claimed() const
    {
        return next.load(std::memory_order_relaxed) >= n ||
               failed.load(std::memory_order_relaxed);
    }

    /** Claim and run blocks of indices until none are left. */
    void
    run()
    {
        for (;;) {
            // Claim one contiguous block of indices per atomic grab.
            size_t start =
                next.fetch_add(grain, std::memory_order_relaxed);
            if (start >= n || failed.load(std::memory_order_relaxed))
                return;
            size_t end = std::min(start + grain, n);
            try {
                for (size_t i = start; i < end; i++)
                    (*body)(i);
            } catch (...) {
                MutexLock lk(m);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    }

    /** A pool leg: take a free leg, or do nothing if none is left. */
    void
    poolLeg()
    {
        {
            MutexLock lk(m);
            if (free_legs == 0)
                return;
            free_legs--;
            active++;
        }
        cv.notify_all();
        run();
        {
            MutexLock lk(m);
            active--;
        }
        cv.notify_all();
    }
};

} // anonymous namespace

void
parallelFor(size_t n, const std::function<void(size_t)> &body,
            unsigned jobs, size_t grain)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;
    if (jobs == 0)
        jobs = ThreadPool::defaultJobs();
    size_t blocks = (n + grain - 1) / grain;
    size_t runners = std::min<size_t>(jobs, blocks);

    // Serial baseline: explicit single job, trivial loops, and nested
    // parallelism (a pool worker waiting on the pool would deadlock).
    if (runners <= 1 || ThreadPool::inWorker() || in_caller_leg) {
        for (size_t i = 0; i < n; i++)
            body(i);
        return;
    }

    ThreadPool &pool = ThreadPool::shared();
    runners = std::min<size_t>(runners, pool.size());
    if (runners <= 1) {
        for (size_t i = 0; i < n; i++)
            body(i);
        return;
    }

    // Pool workers run the legs. The caller waits for one of them to
    // start: a started leg claims indices until none are left, so the
    // loop then finishes. If none starts within kLegStartWait (every
    // worker busy, or blocked, say, on a static initializer the caller
    // is running) the caller takes a leg and runs it itself, so still
    // at most `runners` threads run the body. Either way it waits only
    // for legs that started; later ones find no free leg.
    auto loop = std::make_shared<Loop>(body, n, grain, runners);
    for (size_t r = 0; r < runners; r++)
        pool.submit([loop] { loop->poolLeg(); });

    std::exception_ptr error;
    {
        UniqueLock lk(loop->m);
        // One wait, no predicate loop: a spurious wake-up only makes
        // the caller help early, which changes no result.
        if (loop->free_legs == runners)
            loop->cv.wait_for(lk.native(), kLegStartWait);
        if (loop->free_legs == runners) {
            loop->free_legs--;
            lk.unlock();
            in_caller_leg = true;
            loop->run();
            in_caller_leg = false;
            lk.lock();
        }
        while (!loop->claimed() || loop->active > 0)
            loop->cv.wait(lk.native());
        loop->free_legs = 0;
        error = loop->error;
    }

    if (error)
        std::rethrow_exception(error);
}

} // namespace memo::exec
