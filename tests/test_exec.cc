/**
 * @file
 * Tests for the experiment executor: ThreadPool, parallelFor/sweep
 * determinism, and the process-wide TraceCache. The concurrent cases
 * double as the ThreadSanitizer workload in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/experiment.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "sim/cpu.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

using namespace memo;

namespace
{

/** A tiny deterministic trace for cache and model tests. */
Trace
tinyTrace(int variant)
{
    Trace t;
    Recorder rec(t);
    for (int i = 0; i < 64; i++) {
        double a = 1.0 + (i % 8) * 0.5 + variant;
        double b = rec.mul(a, 3.0);
        rec.div(b, 2.0);
        rec.alu(2);
        rec.branch();
    }
    return t;
}

} // anonymous namespace

TEST(ThreadPool, RunsSubmittedTasks)
{
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);

    std::atomic<int> count{0};
    for (int i = 0; i < 100; i++)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    exec::ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < 10; i++)
            pool.submit([&] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(exec::ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, SharedPoolServesEightJobs)
{
    // The shared pool is sized for at least 8 concurrent workers so
    // `--jobs 8` means 8 real threads even on small hosts.
    EXPECT_GE(exec::ThreadPool::shared().size(), 8u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> seen(n);
    exec::parallelFor(
        n, [&](size_t i) { seen[i].fetch_add(1); }, 4);
    for (size_t i = 0; i < n; i++)
        EXPECT_EQ(seen[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, SingleJobRunsInlineInOrder)
{
    std::vector<size_t> order;
    auto caller = std::this_thread::get_id();
    exec::parallelFor(
        8,
        [&](size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        },
        1);
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); i++)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(
        exec::parallelFor(
            100,
            [&](size_t i) {
                if (i == 37)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline)
{
    // A body that itself calls parallelFor must not deadlock the
    // shared pool; nested loops run inline on the worker.
    std::atomic<int> count{0};
    exec::parallelFor(
        8,
        [&](size_t) {
            exec::parallelFor(
                8, [&](size_t) { count.fetch_add(1); }, 4);
        },
        4);
    EXPECT_EQ(count.load(), 64);
}

TEST(ParallelFor, FinishesWhileEveryWorkerIsBlocked)
{
    // Occupy every pool worker until released. No worker takes a leg,
    // so the caller runs one itself and never waits for a queued leg:
    // the loop completes on the calling thread alone.
    exec::ThreadPool &pool = exec::ThreadPool::shared();
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    for (unsigned i = 0; i < pool.size(); i++)
        pool.submit([released] { released.wait(); });
    std::atomic<int> count{0};
    // A plain thread runs the loop so a stall can be observed.
    // NOLINTNEXTLINE(memo-CONC-001)
    auto loop = std::async(std::launch::async, [&] {
        exec::parallelFor(
            100, [&](size_t) { count.fetch_add(1); }, 4);
    });
    bool finished = loop.wait_for(std::chrono::seconds(20)) ==
                    std::future_status::ready;
    release.set_value();
    loop.get();
    pool.wait();
    EXPECT_TRUE(finished);
    EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, CallerLegCountsAgainstJobs)
{
    // Every pool worker is busy when the loop starts, so the caller
    // takes a leg. Its first iteration frees the workers; of the two
    // queued legs only one may still join, so no more than jobs = 2
    // threads ever run the body at once.
    exec::ThreadPool &pool = exec::ThreadPool::shared();
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    for (unsigned i = 0; i < pool.size(); i++)
        pool.submit([released] { released.wait(); });
    std::atomic<bool> freed{false};
    std::atomic<int> inside{0}, most{0};
    exec::parallelFor(
        200,
        [&](size_t) {
            if (!freed.exchange(true))
                release.set_value();
            int now = inside.fetch_add(1) + 1;
            int seen = most.load();
            while (now > seen && !most.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            inside.fetch_sub(1);
        },
        2);
    pool.wait();
    EXPECT_GE(most.load(), 1);
    EXPECT_LE(most.load(), 2);
}

TEST(Sweep, ResultsAreIndexAligned)
{
    auto out = exec::sweep(
        256, [](size_t i) { return i * i; }, 8);
    ASSERT_EQ(out.size(), 256u);
    for (size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i], i * i);
}

TEST(Sweep, VectorOverloadMapsItems)
{
    std::vector<int> items{5, 3, 9, 1};
    auto out =
        exec::sweep(items, [](int v) { return v * 2; }, 2);
    EXPECT_EQ(out, (std::vector<int>{10, 6, 18, 2}));
}

TEST(Sweep, SimResultsIdenticalSerialAndParallel)
{
    // Replay the same traces through private CpuModels serially and
    // in parallel; every counter must match bit for bit.
    std::vector<Trace> traces;
    for (int v = 0; v < 6; v++)
        traces.push_back(tinyTrace(v));

    auto run = [&](unsigned jobs) {
        return exec::sweep(
            traces.size(),
            [&](size_t i) {
                CpuModel cpu;
                MemoBank bank = MemoBank::standard(MemoConfig{});
                return cpu.run(traces[i], &bank);
            },
            jobs);
    };
    auto serial = run(1);
    auto parallel = run(4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].totalCycles, parallel[i].totalCycles);
        EXPECT_EQ(serial[i].annulCycles, parallel[i].annulCycles);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
        EXPECT_EQ(serial[i].count, parallel[i].count);
    }
}

TEST(Sweep, MmKernelConfigSweepIsDeterministic)
{
    // The real workhorse: hit-ratio sweep of one kernel under four
    // table geometries, serial vs parallel, must be bit-identical.
    const MmKernel &k = mmKernelByName("vcost");
    std::vector<MemoConfig> cfgs(4);
    cfgs[1].entries = 8;
    cfgs[2].entries = 128;
    cfgs[3].infinite = true;

    auto serial = measureMmKernelConfigs(k, cfgs, 32, 1);
    auto parallel = measureMmKernelConfigs(k, cfgs, 32, 4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); i++) {
        EXPECT_EQ(serial[i].intMul, parallel[i].intMul);
        EXPECT_EQ(serial[i].fpMul, parallel[i].fpMul);
        EXPECT_EQ(serial[i].fpDiv, parallel[i].fpDiv);
    }
}

TEST(TraceCache, SameKeyYieldsSameInstanceGeneratedOnce)
{
    exec::TraceCache cache;
    int calls = 0;
    auto gen = [&] {
        calls++;
        return tinyTrace(0);
    };
    auto a = cache.get({"k", "img", 32}, gen);
    auto b = cache.get({"k", "img", 32}, gen);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(cache.generated(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(TraceCache, DistinctKeysGetDistinctTraces)
{
    exec::TraceCache cache;
    auto a = cache.get({"k", "img", 32}, [] { return tinyTrace(0); });
    auto b = cache.get({"k", "img", 64}, [] { return tinyTrace(1); });
    auto c = cache.get({"k2", "img", 32}, [] { return tinyTrace(2); });
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.entries(), 3u);
}

TEST(TraceCache, ConcurrentLookupsGenerateOnce)
{
    // Eight threads race on one key; the generator must run exactly
    // once and everyone must get the same instance. Exercised under
    // ThreadSanitizer in CI.
    exec::TraceCache cache;
    std::atomic<int> calls{0};
    std::vector<std::shared_ptr<const Trace>> got(8);
    // Deliberately bypasses the pool to hammer one cache key from
    // unmanaged threads.
    // NOLINTNEXTLINE(memo-CONC-001)
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; t++) {
        threads.emplace_back([&, t] {
            got[t] = cache.get({"race", "img", 32}, [&] {
                calls.fetch_add(1);
                return tinyTrace(0);
            });
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(calls.load(), 1);
    for (int t = 1; t < 8; t++)
        EXPECT_EQ(got[t].get(), got[0].get());
}

TEST(TraceCache, EvictsLeastRecentlyUsedOverBudget)
{
    Trace probe = tinyTrace(0);
    size_t one = probe.memoryBytes();
    ASSERT_GT(one, 0u);

    // Budget for two traces; inserting a third must evict the coldest.
    exec::TraceCache cache(2 * one + one / 2);
    cache.get({"a", "", 0}, [] { return tinyTrace(0); });
    cache.get({"b", "", 0}, [] { return tinyTrace(1); });
    cache.get({"a", "", 0}, [] { return tinyTrace(0); }); // refresh a
    cache.get({"c", "", 0}, [] { return tinyTrace(2); }); // evicts b
    EXPECT_EQ(cache.entries(), 2u);

    int regen_b = 0, regen_a = 0;
    // `a` was refreshed before `c` was inserted, so `b` was the LRU
    // victim; a must still be resident.
    cache.get({"a", "", 0}, [&] {
        regen_a++;
        return tinyTrace(0);
    });
    EXPECT_EQ(regen_a, 0) << "a was recently used and should survive";
    cache.get({"b", "", 0}, [&] {
        regen_b++;
        return tinyTrace(1);
    });
    EXPECT_EQ(regen_b, 1) << "b should have been evicted";
}

TEST(TraceCache, SharedHoldersSurviveClear)
{
    exec::TraceCache cache;
    auto a = cache.get({"k", "", 0}, [] { return tinyTrace(0); });
    size_t n = a->size();
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(a->size(), n); // our shared_ptr keeps the trace alive
}

TEST(TraceCache, CachedMmTraceIsProcessWideShared)
{
    // The analysis helper must hand back the same instance on repeat
    // calls — this is what makes measureAppCycles cheap.
    const MmKernel &k = mmKernelByName("vcost");
    const auto &img = standardImages().front();
    auto a = cachedMmKernelTrace(k, img, 32);
    auto b = cachedMmKernelTrace(k, img, 32);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_FALSE(a->empty());
}
