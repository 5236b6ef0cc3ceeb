/**
 * @file
 * Tests for the host-performance profiling layer (src/prof): span
 * recording and nesting, the determinism contract with profiling off,
 * Chrome-trace export (host spans alone and combined with table
 * events), the benchmark statistics and environment manifest, and
 * the stderr heartbeat. The Prof* / Heartbeat* concurrent cases run
 * under the ThreadSanitizer CI job alongside the executor tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "obs/stats.hh"
#include "obs/tracer.hh"
#include "prof/bench_record.hh"
#include "prof/heartbeat.hh"
#include "prof/prof.hh"
#include "sim/cpu.hh"
#include "trace/recorder.hh"

using namespace memo;

namespace
{

/** A tiny deterministic trace for registry-determinism tests. */
Trace
tinyTrace()
{
    Trace t;
    Recorder rec(t);
    for (int i = 0; i < 256; i++) {
        double a = 1.0 + (i % 16) * 0.25;
        double b = rec.mul(a, 3.0);
        rec.div(b, 2.0);
        rec.alu(1);
        rec.branch();
    }
    return t;
}

} // anonymous namespace

TEST(Prof, NowNsIsMonotonic)
{
    uint64_t a = prof::nowNs();
    uint64_t b = prof::nowNs();
    EXPECT_GE(b, a);
    EXPECT_GT(a, 0u);
}

TEST(Prof, DisabledProfilerRecordsNothing)
{
    prof::Profiler p;
    ASSERT_FALSE(p.enabled());
    {
        prof::ProfSpan outer("outer", p);
        prof::ProfSpan inner("inner", p);
    }
    EXPECT_EQ(p.size(), 0u);
    EXPECT_EQ(p.epochNs(), 0u);
    EXPECT_TRUE(p.snapshot().empty());
}

TEST(Prof, SpansNestAndFlushInOrder)
{
    prof::Profiler p;
    p.setEnabled(true);
    EXPECT_GT(p.epochNs(), 0u);
    {
        prof::ProfSpan outer("outer", p);
        {
            prof::ProfSpan inner("inner", p);
        }
    }
    ASSERT_EQ(p.size(), 2u);
    auto spans = p.snapshot();
    // Sorted by start time: outer opened first.
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[1].name, "inner");
    EXPECT_EQ(spans[0].depth, 0u);
    EXPECT_EQ(spans[1].depth, 1u);
    // Containment: the inner span lies inside the outer one.
    EXPECT_GE(spans[1].t0Ns, spans[0].t0Ns);
    EXPECT_LE(spans[1].t1Ns, spans[0].t1Ns);

    p.clear();
    EXPECT_EQ(p.size(), 0u);
}

TEST(Prof, EnableMidSpanIsInertForThatSpan)
{
    prof::Profiler p;
    {
        prof::ProfSpan span("before_enable", p);
        p.setEnabled(true);
    }
    // The span was constructed while disabled, so nothing flushed.
    EXPECT_EQ(p.size(), 0u);
}

TEST(Prof, SpansFlushAcrossPoolThreads)
{
    prof::Profiler p;
    p.setEnabled(true);
    exec::parallelFor(
        16,
        [&](size_t i) {
            prof::ProfSpan span("job" + std::to_string(i), p);
        },
        4);
    EXPECT_EQ(p.size(), 16u);
    auto spans = p.snapshot();
    for (const auto &s : spans) {
        EXPECT_GE(s.tid, 1u);
        EXPECT_LE(s.t0Ns, s.t1Ns);
    }
}

TEST(Prof, ChromeExportIsWellFormed)
{
    prof::Profiler p;
    p.setEnabled(true);
    {
        prof::ProfSpan span("phase_a", p);
    }
    std::ostringstream os;
    p.exportChromeTrace(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("phase_a"), std::string::npos);
    EXPECT_NE(json.find("\"hostSpans\": 1"), std::string::npos);
    // No table events were attached.
    EXPECT_EQ(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(Prof, ChromeExportCombinesTableEvents)
{
    prof::Profiler p;
    p.setEnabled(true);
    {
        prof::ProfSpan span("replay", p);
    }
    obs::EventTracer tracer(16);
    tracer.onTableEvent(Operation::FpMul, TableEventKind::Hit, 3, 100);
    tracer.onTableEvent(Operation::FpMul, TableEventKind::Miss, 4, 200);

    std::ostringstream os;
    p.exportChromeTrace(os, &tracer);
    std::string json = os.str();
    // Host duration events and table instant events share one array.
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"tableEventsRecorded\": 2"),
              std::string::npos);
}

TEST(Prof, TracerStandaloneExportUnchangedByRefactor)
{
    obs::EventTracer tracer(16);
    tracer.onTableEvent(Operation::IntMul, TableEventKind::Hit, 1, 10);
    std::ostringstream os;
    tracer.exportChromeTrace(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"offered\": 1"), std::string::npos);
}

TEST(Prof, PeakRssAndCpuModelReport)
{
    EXPECT_GT(prof::peakRssBytes(), 0u);
    EXPECT_FALSE(prof::cpuModelName().empty());
}

TEST(Prof, PublishProcessStatsSetsGauges)
{
    prof::Profiler p;
    p.setEnabled(true);
    {
        prof::ProfSpan span("s", p);
    }
    obs::StatsRegistry reg;
    prof::publishProcessStats(reg, p);
    auto snap = reg.snapshot();
    EXPECT_GT(snap.gauges["prof.process.peakRssBytes"], 0u);
    EXPECT_EQ(snap.gauges["prof.process.spans"], 1u);
}

TEST(Prof, PoolUtilizationPublishesWhenEnabled)
{
    // A private pool so worker accounting starts from zero; the
    // global profiler gates the pool's clock reads.
    prof::Profiler::global().setEnabled(true);
    exec::ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; i++)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    prof::Profiler::global().setEnabled(false);

    EXPECT_EQ(ran.load(), 8);
    auto ws = pool.workerStats();
    ASSERT_EQ(ws.size(), 2u);
    uint64_t tasks = 0;
    for (const auto &w : ws)
        tasks += w.tasks;
    EXPECT_EQ(tasks, 8u);

    obs::StatsRegistry reg;
    pool.publishUtilization(reg);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.gauges["exec.pool.size"], 2u);
    EXPECT_EQ(snap.gauges["exec.pool.tasks"], 8u);
}

TEST(Prof, PoolCountsTasksEvenWhenProfilingOff)
{
    ASSERT_FALSE(prof::Profiler::global().enabled());
    exec::ThreadPool pool(2);
    for (int i = 0; i < 5; i++)
        pool.submit([] {});
    pool.wait();
    auto ws = pool.workerStats();
    uint64_t tasks = 0, busy = 0;
    for (const auto &w : ws) {
        tasks += w.tasks;
        busy += w.busyNs;
    }
    EXPECT_EQ(tasks, 5u);
    // No clock reads with profiling off: busy time stays zero.
    EXPECT_EQ(busy, 0u);
}

TEST(Prof, TraceCachePublishesCounters)
{
    exec::TraceCache cache(1 << 20);
    Trace t = tinyTrace();
    exec::TraceKey key{"prof_test", "img", 0};
    cache.get(key, [&] { return t; });
    cache.get(key, [&] { return t; });
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);

    obs::StatsRegistry reg;
    cache.publishStats(reg);
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.gauges["exec.traceCache.hits"], 1u);
    EXPECT_EQ(snap.gauges["exec.traceCache.misses"], 1u);
    EXPECT_EQ(snap.gauges["exec.traceCache.entries"], 1u);
    EXPECT_GT(snap.gauges["exec.traceCache.residentBytes"], 0u);
}

TEST(Prof, TraceCacheCountsEvictions)
{
    // A budget far below one trace's footprint forces the LRU walk to
    // evict the older entry when the second lands.
    Trace t = tinyTrace();
    exec::TraceCache cache(1);
    cache.get(exec::TraceKey{"a", "", 0}, [&] { return t; });
    cache.get(exec::TraceKey{"b", "", 0}, [&] { return t; });
    EXPECT_GE(cache.evictions(), 1u);
}

TEST(Prof, RegistryDeterministicAcrossJobsWithProfilingOff)
{
    // The determinism contract: with profiling off, replaying the
    // same work at --jobs 1 and --jobs 4 must merge to byte-identical
    // registry snapshots (the golden/exactness suites rely on this).
    ASSERT_FALSE(prof::Profiler::global().enabled());
    Trace t = tinyTrace();

    auto run = [&](unsigned jobs) {
        obs::StatsRegistry::global().reset();
        exec::parallelFor(
            8,
            [&](size_t) {
                CpuModel cpu;
                cpu.run(t);
            },
            jobs);
        return obs::StatsRegistry::global().snapshot().serialize();
    };
    std::string serial = run(1);
    std::string parallel = run(4);
    EXPECT_EQ(serial, parallel);
    obs::StatsRegistry::global().reset();
}

TEST(Prof, MedianAndMadAreRobust)
{
    EXPECT_DOUBLE_EQ(prof::medianOf({}), 0.0);
    EXPECT_DOUBLE_EQ(prof::medianOf({3.0}), 3.0);
    EXPECT_DOUBLE_EQ(prof::medianOf({1.0, 2.0, 3.0, 4.0}), 2.5);
    // One wild outlier barely moves median or MAD.
    std::vector<double> xs{1.0, 1.1, 0.9, 1.0, 100.0};
    double med = prof::medianOf(xs);
    EXPECT_DOUBLE_EQ(med, 1.0);
    EXPECT_NEAR(prof::madOf(xs, med), 0.1, 1e-12);
}

TEST(Prof, MedianOfDoesNotNeedSortedInput)
{
    EXPECT_DOUBLE_EQ(prof::medianOf({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(prof::medianOf({4.0, 1.0, 3.0, 2.0}), 2.5);
    // Constant samples have zero spread.
    EXPECT_DOUBLE_EQ(prof::madOf({2.0, 2.0, 2.0}, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(prof::madOf({}, 1.0), 0.0);
}

TEST(Prof, SummarizeSamplesFillsTheRecord)
{
    prof::BenchRecord r;
    r.samplesSec = {0.5, 0.25, 0.75, 0.5};
    prof::summarizeSamples(r);
    EXPECT_EQ(r.reps, 4u);
    EXPECT_DOUBLE_EQ(r.medianSec, 0.5);
    EXPECT_DOUBLE_EQ(r.madSec, 0.125);
    EXPECT_DOUBLE_EQ(r.minSec, 0.25);
    EXPECT_DOUBLE_EQ(r.maxSec, 0.75);
    // The samples keep their repetition order.
    EXPECT_EQ(r.samplesSec, (std::vector<double>{0.5, 0.25, 0.75, 0.5}));
}

TEST(Prof, SummarizeSamplesOfNoSamplesIsZero)
{
    prof::BenchRecord r;
    r.reps = 7;
    r.minSec = r.maxSec = r.medianSec = r.madSec = 1.0;
    prof::summarizeSamples(r);
    EXPECT_EQ(r.reps, 0u);
    EXPECT_DOUBLE_EQ(r.medianSec, 0.0);
    EXPECT_DOUBLE_EQ(r.madSec, 0.0);
    EXPECT_DOUBLE_EQ(r.minSec, 0.0);
    EXPECT_DOUBLE_EQ(r.maxSec, 0.0);
}

TEST(Prof, EnvManifestIsPopulated)
{
    auto env = prof::EnvManifest::collect();
    EXPECT_FALSE(env.gitSha.empty());
    EXPECT_FALSE(env.compiler.empty());
    EXPECT_FALSE(env.cpu.empty());
    EXPECT_GT(env.hwThreads, 0u);
}

TEST(Heartbeat, WritesRateLineToGivenStream)
{
    std::ostringstream os;
    {
        prof::Heartbeat hb("unit", 100, 0.01, &os);
        hb.tick(40);
        hb.tick(10);
        EXPECT_EQ(hb.counter().load(), 50u);
        hb.stop();
    }
    std::string out = os.str();
    EXPECT_NE(out.find("[unit]"), std::string::npos);
    EXPECT_NE(out.find("50/100"), std::string::npos);
    EXPECT_NE(out.find("%"), std::string::npos);
}

TEST(Heartbeat, UnknownTotalOmitsEta)
{
    std::ostringstream os;
    {
        prof::Heartbeat hb("scan", 0, 0.01, &os);
        hb.tick(7);
        hb.stop();
    }
    std::string out = os.str();
    EXPECT_NE(out.find("7 done"), std::string::npos);
    EXPECT_EQ(out.find("eta"), std::string::npos);
}

TEST(Heartbeat, StopIsIdempotentAndDestructorSafe)
{
    std::ostringstream os;
    prof::Heartbeat hb("x", 10, 0.01, &os);
    hb.tick(10);
    hb.stop();
    hb.stop(); // second stop must be a no-op
}

TEST(Heartbeat, TicksFromManyThreads)
{
    std::ostringstream os;
    prof::Heartbeat hb("mt", 64, 0.005, &os);
    exec::parallelFor(64, [&](size_t) { hb.tick(); }, 4);
    hb.stop();
    EXPECT_EQ(hb.counter().load(), 64u);
}

TEST(Heartbeat, DrivesCpuProgressCounter)
{
    std::ostringstream os;
    Trace t = tinyTrace();
    prof::Heartbeat hb("replay", t.size(), 0.01, &os);
    CpuConfig cfg;
    cfg.progress = &hb.counter();
    CpuModel cpu(cfg);
    cpu.run(t);
    hb.stop();
    // Every instruction lands in the counter (batched + final flush).
    EXPECT_EQ(hb.counter().load(), t.size());
}
