/**
 * @file
 * Tests of the observability layer: histogram bucket edges, registry
 * merge determinism under the thread pool, tracer ring wraparound and
 * a golden-style snapshot of the report renderer.
 */

#include <gtest/gtest.h>

#include "arith/fp.hh"
#include "core/hooks.hh"
#include "core/memo_table.hh"
#include "exec/parallel.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "obs/tracer.hh"

#include <sstream>

using namespace memo;
using namespace memo::obs;

// --- Histogram ------------------------------------------------------

TEST(Histogram, BucketEdgesAreInclusive)
{
    Histogram h({1, 2, 4});
    h.record(0); // <= 1
    h.record(1); // <= 1 (inclusive upper edge)
    h.record(2); // <= 2
    h.record(3); // <= 4
    h.record(4); // <= 4
    h.record(5); // overflow
    ASSERT_EQ(h.counts().size(), 4u);
    EXPECT_EQ(h.counts()[0], 2u);
    EXPECT_EQ(h.counts()[1], 1u);
    EXPECT_EQ(h.counts()[2], 2u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 5);
}

TEST(Histogram, MergeSumsPerBucket)
{
    Histogram a({10, 20});
    Histogram b({10, 20});
    a.record(5);
    a.record(25);
    b.record(15);
    a.merge(b);
    EXPECT_EQ(a.counts()[0], 1u);
    EXPECT_EQ(a.counts()[1], 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.total(), 3u);
}

TEST(Histogram, RecordManyEqualsRepeatedRecord)
{
    // record(v, n) is the batched form CpuModel::run folds its
    // per-latency counts through: n calls of record(v), exactly.
    for (uint64_t value : {0u, 1u, 3u, 64u, 200u}) {
        Histogram batched, repeated;
        batched.record(value, 7);
        for (int i = 0; i < 7; i++)
            repeated.record(value);
        EXPECT_EQ(batched.serialize(), repeated.serialize()) << value;
        EXPECT_EQ(batched.counts(), repeated.counts()) << value;
        EXPECT_EQ(batched.sum(), repeated.sum()) << value;
    }
    Histogram none;
    none.record(5, 0);
    EXPECT_EQ(none.total(), 0u);
    EXPECT_EQ(none.sum(), 0u);
}

TEST(Histogram, SerializeIsCanonical)
{
    Histogram h({1, 2});
    h.record(1);
    h.record(3);
    EXPECT_EQ(h.serialize(), "|<=1:1|<=2:0|inf:1| n=2 sum=4");
}

TEST(Histogram, MeanAndDefaultEdges)
{
    Histogram h; // default power-of-two edges up to 128
    EXPECT_EQ(h.mean(), 0.0);
    h.record(10);
    h.record(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_EQ(h.edges().back(), 128u);
}

// --- StatsRegistry --------------------------------------------------

TEST(StatsRegistry, CountersGaugesHistograms)
{
    StatsRegistry reg;
    reg.add("a.count", 2);
    reg.add("a.count", 3);
    reg.gaugeMax("a.peak", 7);
    reg.gaugeMax("a.peak", 4); // lower: ignored
    reg.recordHistogram("a.lat", 3);

    Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("a.count"), 5u);
    EXPECT_EQ(snap.counter("missing"), 0u);
    EXPECT_EQ(snap.gauges.at("a.peak"), 7u);
    EXPECT_EQ(snap.histograms.at("a.lat").total(), 1u);
}

TEST(StatsRegistry, ResetDropsEverything)
{
    StatsRegistry reg;
    reg.add("x", 1);
    reg.reset();
    Snapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.histograms.empty());
}

/**
 * The determinism contract: the same per-work-item deltas merged from
 * any shard layout serialize to the same bytes. Runs the identical
 * work at --jobs 1 and --jobs 4 through the real thread pool (this
 * test is in the TSan CI filter, which also proves the shard
 * registration is race-free).
 */
TEST(StatsRegistry, SnapshotBitIdenticalAcrossJobLevels)
{
    auto run = [](unsigned jobs) {
        StatsRegistry reg;
        exec::parallelFor(
            64,
            [&](size_t i) {
                reg.add("work.items", 1);
                reg.add("work.sum", i);
                reg.gaugeMax("work.max", i);
                reg.recordHistogram("work.value", i);
            },
            jobs);
        return reg.snapshot().serialize();
    };
    std::string serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(3));
    EXPECT_NE(serial.find("counter work.items 64"), std::string::npos);
    EXPECT_NE(serial.find("counter work.sum 2016"), std::string::npos);
    EXPECT_NE(serial.find("gauge work.max 63"), std::string::npos);
}

// --- EventTracer ----------------------------------------------------

TEST(EventTracer, CountsAllKindsAndRecordsSampled)
{
    EventTracer tracer(8, 2); // record every 2nd offered event
    for (unsigned i = 0; i < 10; i++)
        tracer.onTableEvent(Operation::FpDiv, TableEventKind::Hit, i,
                            i);
    EXPECT_EQ(tracer.offered(), 10u);
    EXPECT_EQ(tracer.recorded(), 5u);
    EXPECT_EQ(tracer.offeredOf(TableEventKind::Hit), 10u);
    EXPECT_EQ(tracer.offeredOf(TableEventKind::Miss), 0u);
    // Samples are events 0, 2, 4, 6, 8.
    EXPECT_EQ(tracer.at(0).set, 0u);
    EXPECT_EQ(tracer.at(4).set, 8u);
}

TEST(EventTracer, RingWrapsKeepingNewest)
{
    EventTracer tracer(4); // capacity 4, no sampling
    for (unsigned i = 0; i < 10; i++)
        tracer.onTableEvent(Operation::FpMul, TableEventKind::Insert,
                            i, 100 + i);
    EXPECT_EQ(tracer.offered(), 10u);
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(tracer.size(), 4u);
    // Oldest-first iteration over the retained tail: events 6..9.
    for (size_t i = 0; i < tracer.size(); i++) {
        EXPECT_EQ(tracer.at(i).set, 6 + i);
        EXPECT_EQ(tracer.at(i).stamp, 106 + i);
    }
    tracer.clear();
    EXPECT_EQ(tracer.offered(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(EventTracer, ChromeTraceExportIsWellFormed)
{
    EventTracer tracer(8);
    tracer.onTableEvent(Operation::FpDiv, TableEventKind::Miss, 3, 1);
    tracer.onTableEvent(Operation::FpDiv, TableEventKind::Insert, 3, 1);
    std::ostringstream os;
    tracer.exportChromeTrace(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"miss\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"insert\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"fp div\""), std::string::npos);
    EXPECT_NE(json.find("\"samplePeriod\": 1"), std::string::npos);
}

/** End to end: a real MemoTable emits events through the hook. */
TEST(EventTracer, ReceivesMemoTableEvents)
{
    MemoConfig cfg;
    MemoTable table(Operation::FpMul, cfg);
    EventTracer tracer(64);
    table.setHooks(&tracer);

    double a = 2.5, b = 3.25;
    uint64_t ab = fpBits(a), bb = fpBits(b);
    EXPECT_FALSE(table.lookup(ab, bb));
    table.update(ab, bb, fpBits(a * b));
    EXPECT_TRUE(table.lookup(ab, bb));

    EXPECT_EQ(tracer.offeredOf(TableEventKind::Miss), 1u);
    EXPECT_EQ(tracer.offeredOf(TableEventKind::Insert), 1u);
    EXPECT_EQ(tracer.offeredOf(TableEventKind::Hit), 1u);

    table.setHooks(nullptr);
    table.lookup(ab, bb);
    EXPECT_EQ(tracer.offeredOf(TableEventKind::Hit), 1u)
        << "detached tracer must see no further events";
}

// --- Report renderer ------------------------------------------------

namespace
{

Report
sampleReport()
{
    Report r;
    r.title = "Sample";
    r.preamble = {"Intro paragraph."};
    ReportSection sec;
    sec.title = "Section A";
    sec.anchor = "a";
    sec.prose = {"Before tables."};
    sec.tables = {{{"col1", "col2"}, {{"x", "1"}, {"y", "2"}}}};
    sec.claims = {{"claim holds", true, "x > y"},
                  {"claim fails", false, "see above"}};
    sec.notes = {"After claims."};
    r.sections = {sec};
    return r;
}

} // anonymous namespace

/** Golden-style snapshot: the exact markdown the renderer emits. */
TEST(ReportRenderer, MarkdownSnapshot)
{
    EXPECT_EQ(renderMarkdown(sampleReport()),
              "# Sample\n"
              "\n"
              "Intro paragraph.\n"
              "\n"
              "## Section A\n"
              "\n"
              "Before tables.\n"
              "\n"
              "| col1 | col2 |\n"
              "|---|---|\n"
              "| x | 1 |\n"
              "| y | 2 |\n"
              "\n"
              "- ✓ claim holds — x > y\n"
              "- ✗ claim fails — see above\n"
              "\n"
              "After claims.\n");
}

TEST(ReportRenderer, MarkdownIsDeterministic)
{
    Report r = sampleReport();
    EXPECT_EQ(renderMarkdown(r), renderMarkdown(r));
    EXPECT_EQ(renderHtml(r), renderHtml(r));
}

TEST(ReportRenderer, HtmlEscapesAndBadges)
{
    Report r = sampleReport();
    r.sections[0].prose = {"a < b & c > d"};
    std::string html = renderHtml(r);
    EXPECT_NE(html.find("a &lt; b &amp; c &gt; d"), std::string::npos);
    EXPECT_NE(html.find("class=\"badge pass\""), std::string::npos);
    EXPECT_NE(html.find("class=\"badge fail\""), std::string::npos);
    EXPECT_NE(html.find("id=\"a\""), std::string::npos);
    EXPECT_EQ(html.find("<script"), std::string::npos);
}
