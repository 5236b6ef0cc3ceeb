/**
 * @file
 * Tests for the trace container and its per-class operand columns, the
 * Recorder instrumentation facade and the Traced value wrapper.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "check/oracle.hh"
#include "core/aligned.hh"
#include "core/bank.hh"
#include "exec/thread_pool.hh"
#include "img/generate.hh"
#include "sim/cpu.hh"
#include "trace/chunk_codec.hh"
#include "trace/recorder.hh"
#include "trace/traced.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

/** Every record of @p t, materialized in trace order. */
std::vector<Instruction>
records(const Trace &t)
{
    return {t.begin(), t.end()};
}

TEST(Trace, OpMixCountsClasses)
{
    Trace trace;
    Recorder rec(trace);
    rec.mul(2.0, 3.0);
    rec.mul(4.0, 5.0);
    rec.div(6.0, 3.0);
    rec.alu(3);
    rec.branch();

    OpMix mix = trace.mix();
    EXPECT_EQ(mix[InstClass::FpMul], 2u);
    EXPECT_EQ(mix[InstClass::FpDiv], 1u);
    EXPECT_EQ(mix[InstClass::IntAlu], 3u);
    EXPECT_EQ(mix[InstClass::Branch], 1u);
    EXPECT_EQ(mix.total(), 7u);
    EXPECT_DOUBLE_EQ(mix.fraction(InstClass::FpDiv), 1.0 / 7.0);
}

TEST(Recorder, OperationsComputeCorrectly)
{
    Trace trace;
    Recorder rec(trace);
    EXPECT_EQ(rec.mul(2.5, 4.0), 10.0);
    EXPECT_EQ(rec.div(10.0, 4.0), 2.5);
    EXPECT_EQ(rec.sqrt(9.0), 3.0);
    EXPECT_EQ(rec.imul(6, 7), 42);
    EXPECT_EQ(rec.fadd(1.0, 2.0), 3.0);
    EXPECT_EQ(rec.fsub(1.0, 2.0), -1.0);
    EXPECT_EQ(rec.exp(0.0), 1.0);
    EXPECT_EQ(rec.log(1.0), 0.0);
    EXPECT_EQ(rec.sin(0.0), 0.0);
    EXPECT_EQ(rec.cos(0.0), 1.0);
}

TEST(Recorder, OperandsAndResultsRecorded)
{
    Trace trace;
    Recorder rec(trace);
    rec.div(10.0, 4.0);

    ASSERT_EQ(trace.size(), 1u);
    const Instruction inst = records(trace)[0];
    EXPECT_EQ(inst.cls, InstClass::FpDiv);
    EXPECT_EQ(inst.a, fpBits(10.0));
    EXPECT_EQ(inst.b, fpBits(4.0));
    EXPECT_EQ(inst.result, fpBits(2.5));
}

TEST(Recorder, FpAddRecordsOnlyItsClass)
{
    Trace trace;
    Recorder rec(trace);
    EXPECT_EQ(rec.fadd(1.0, 2.0), 3.0);
    EXPECT_EQ(rec.fsub(1.0, 2.0), -1.0);

    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.store().opCount(), 0u);
    EXPECT_EQ(trace.memoryBytes(), 2u);
    for (const Instruction inst : trace) {
        EXPECT_EQ(inst.cls, InstClass::FpAdd);
        EXPECT_EQ(inst.a | inst.b | inst.result, 0u);
    }
}

TEST(Recorder, LoadStoreRecordAddresses)
{
    Trace trace;
    Recorder rec(trace);
    alignas(kRecordedLineBytes) double data[16] = {};
    data[2] = 7.5;

    double v = rec.load(data[2]);
    EXPECT_EQ(v, 7.5);
    rec.store(data[3], 9.0);
    EXPECT_EQ(data[3], 9.0);

    ASSERT_EQ(trace.size(), 2u);
    const std::vector<Instruction> r = records(trace);
    EXPECT_EQ(r[0].cls, InstClass::Load);
    EXPECT_EQ(r[1].cls, InstClass::Store);
    // data[2] and data[3] share one 32-byte modeled line (bytes
    // 16..31 of the aligned buffer): remapped line must agree, and
    // the intra-line offsets must survive the remap.
    EXPECT_EQ(r[0].addr >> 5, r[1].addr >> 5);
    EXPECT_EQ(r[0].addr & 31u, 16u);
    EXPECT_EQ(r[1].addr & 31u, 24u);
}

TEST(Recorder, AddressRemappingIsFirstTouchOrdered)
{
    // The first line touched maps to line 0, the second to line 1 ...
    Trace trace;
    Recorder rec(trace);
    AlignedVec<double> data(64, 0.0); // several 32-byte cache lines

    rec.load(data[0]);  // line A
    rec.load(data[32]); // line B (256 bytes away)
    rec.load(data[0]);  // line A again

    auto line = [&](int i) { return records(trace)[i].addr >> 5; };
    EXPECT_EQ(line(0), 0u);
    EXPECT_EQ(line(1), 1u);
    EXPECT_EQ(line(2), line(0));
}

TEST(Recorder, FreedLineGetsFreshNumber)
{
    // A line whose buffer is freed must be numbered afresh at its
    // next touch, whichever thread reports the free; lines outside
    // the freed range keep their IDs.
    Trace trace;
    Recorder rec(trace);
    AlignedVec<double> data(64, 0.0); // 16 lines of 32 bytes
    auto line = [&](size_t i) { return records(trace)[i].addr >> 5; };
    auto freeLine = [&](size_t elem) {
        LiveRecorders::instance().onFree(&data[elem], kRecordedLineBytes);
    };

    rec.load(data[0]);  // line 0
    rec.load(data[32]); // line 1
    freeLine(0);
    rec.load(data[0]);  // fresh: line 2
    rec.load(data[32]); // outside the range: still line 1
    EXPECT_EQ(line(0), 0u);
    EXPECT_EQ(line(1), 1u);
    EXPECT_EQ(line(2), 2u);
    EXPECT_EQ(line(3), 1u);

    exec::ThreadPool pool(1);
    pool.submit([&] { freeLine(0); });
    pool.wait();
    rec.load(data[0]);  // fresh again: line 3
    rec.load(data[32]); // still line 1
    rec.load(data[1]);  // same line as data[0], no new free: line 3
    EXPECT_EQ(line(4), 3u);
    EXPECT_EQ(line(5), 1u);
    EXPECT_EQ(line(6), 3u);
}

TEST(Recorder, DeterministicAcrossRuns)
{
    auto make = [] {
        Trace trace;
        Recorder rec(trace);
        std::vector<double> buf(128, 1.0);
        for (int i = 0; i < 100; i++) {
            double v = rec.load(buf[(i * 7) % 128]);
            rec.mul(v, 1.5);
        }
        return trace;
    };
    Trace t1 = make();
    Trace t2 = make();
    const std::vector<Instruction> r1 = records(t1);
    const std::vector<Instruction> r2 = records(t2);
    ASSERT_EQ(r1.size(), r2.size());
    for (size_t i = 0; i < r1.size(); i++) {
        EXPECT_EQ(r1[i].cls, r2[i].cls);
        EXPECT_EQ(r1[i].addr, r2[i].addr);
        EXPECT_EQ(r1[i].a, r2[i].a);
    }
}

TEST(Traced, OperatorsRecord)
{
    Trace trace;
    Recorder rec(trace);
    TracedScope scope(rec);

    Traced a = 3.0, b = 4.0;
    Traced c = memo::sqrt(a * a + b * b);
    EXPECT_EQ(c.value(), 5.0);

    OpMix mix = trace.mix();
    EXPECT_EQ(mix[InstClass::FpMul], 2u);
    EXPECT_EQ(mix[InstClass::FpAdd], 1u);
    EXPECT_EQ(mix[InstClass::FpSqrt], 1u);
}

TEST(Traced, DivisionAndCompound)
{
    Trace trace;
    Recorder rec(trace);
    TracedScope scope(rec);

    Traced x = 10.0;
    x /= Traced(4.0);
    EXPECT_EQ(x.value(), 2.5);
    x *= Traced(2.0);
    EXPECT_EQ(x.value(), 5.0);
    EXPECT_TRUE(x > Traced(4.9));
    EXPECT_EQ(trace.mix()[InstClass::FpDiv], 1u);
}

TEST(Traced, ScopesNest)
{
    Trace outer_trace, inner_trace;
    Recorder outer(outer_trace), inner(inner_trace);

    TracedScope outer_scope(outer);
    { // inner scope temporarily rebinds
        TracedScope inner_scope(inner);
        Traced a = 2.0;
        (void)(a * a);
        EXPECT_EQ(TracedScope::current(), &inner);
    }
    EXPECT_EQ(TracedScope::current(), &outer);
    Traced b = 3.0;
    (void)(b * b);

    EXPECT_EQ(inner_trace.mix()[InstClass::FpMul], 1u);
    EXPECT_EQ(outer_trace.mix()[InstClass::FpMul], 1u);
}

/** Deterministic mixed-class trace; @p seed varies values and mix. */
Trace
mixedTrace(unsigned seed, size_t n)
{
    Trace t;
    uint64_t x = 0x9e3779b97f4a7c15ull * (seed + 1);
    for (size_t i = 0; i < n; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Instruction inst;
        inst.cls = static_cast<InstClass>(x % numInstClasses);
        inst.a = x;
        inst.b = x >> 3;
        inst.result = x * 3;
        inst.addr = x >> 5;
        t.push(inst);
    }
    return t;
}

/** Per-class operand words, gathered record by record. */
using ClassWords = std::array<TraceStore::ClassColumns, numInstClasses>;

ClassWords
serialPartition(const Trace &t)
{
    ClassWords out;
    for (Instruction inst : t) {
        if (!TraceStore::hasOperands(inst.cls))
            continue;
        TraceStore::ClassColumns &c =
            out[static_cast<unsigned>(inst.cls)];
        c.a.push_back(inst.a);
        c.b.push_back(inst.b);
        c.r.push_back(inst.result);
    }
    return out;
}

ClassWords
copyPartition(const TraceStore &s)
{
    ClassWords out;
    for (unsigned c = 0; c < numInstClasses; c++)
        out[c] = s.classColumns(static_cast<InstClass>(c));
    return out;
}

void
expectSamePartition(const ClassWords &got, const ClassWords &want)
{
    for (unsigned c = 0; c < numInstClasses; c++) {
        EXPECT_EQ(got[c].a, want[c].a) << "class " << c;
        EXPECT_EQ(got[c].b, want[c].b) << "class " << c;
        EXPECT_EQ(got[c].r, want[c].r) << "class " << c;
    }
}

/** Every field of every record of @p got equals @p want's. */
void
expectSameRecords(const std::vector<Instruction> &got, const Trace &want)
{
    ASSERT_EQ(got.size(), want.size());
    size_t i = 0;
    for (const Instruction w : want) {
        const Instruction &g = got[i];
        ASSERT_TRUE(g.cls == w.cls && g.a == w.a && g.b == w.b &&
                    g.result == w.result && g.addr == w.addr)
            << "record " << i;
        i++;
    }
}

TEST(TraceStore, ConcurrentReadersSeeFrozenStore)
{
    // A recorded store is frozen and carries no lock: 8 threads
    // reading its class columns and walking its records at once must
    // each see exactly what a serial record-by-record walk sees.
    constexpr unsigned kThreads = 8;
    const Trace shared = mixedTrace(0, 100000);
    const ClassWords want = serialPartition(shared);

    exec::ThreadPool pool(kThreads);
    std::vector<ClassWords> got(kThreads);
    std::vector<std::vector<Instruction>> walked(kThreads);
    // Every worker waits at the gate, so the reads overlap instead of
    // running one after another.
    std::atomic<unsigned> arrived{0};
    for (unsigned t = 0; t < kThreads; t++)
        pool.submit([&, t] {
            arrived.fetch_add(1);
            while (arrived.load() < kThreads)
                std::this_thread::yield();
            got[t] = copyPartition(shared.store());
            walked[t] = records(shared);
        });
    pool.wait();

    for (unsigned t = 0; t < kThreads; t++) {
        SCOPED_TRACE("thread " + std::to_string(t));
        expectSamePartition(got[t], want);
        expectSameRecords(walked[t], shared);
    }
}

TEST(TraceStore, ClassColumnsRebuildAfterGrowth)
{
    // The class columns grow with push(), and a spill round trip (the
    // encoder gathers trace order from them, the decoder scatters it
    // back) rebuilds them exactly. Chunks of 7 make the gather and the
    // scatter cross chunk boundaries; the inputs include a trace with
    // one operand class missing and an empty trace.
    Trace t = mixedTrace(3, 1000);
    expectSamePartition(copyPartition(t.store()), serialPartition(t));
    for (const Instruction &inst : mixedTrace(4, 500))
        t.push(inst);
    expectSamePartition(copyPartition(t.store()), serialPartition(t));

    Trace noFpMul;
    for (const Instruction &inst : mixedTrace(5, 1000))
        if (inst.cls != InstClass::FpMul)
            noFpMul.push(inst);
    const Trace empty;
    const Trace *inputs[] = {&t, &noFpMul, &empty};
    for (const Trace *in : inputs) {
        const Trace back = decodeTraceChunked(encodeTraceChunked(*in, 7));
        expectSamePartition(copyPartition(back.store()),
                            serialPartition(*in));
        expectSameRecords({back.begin(), back.end()}, *in);
    }
    EXPECT_TRUE(noFpMul.store().classColumns(InstClass::FpMul).a.empty());
}

TEST(TraceStore, MemoryPassBelongsToTheStoreContents)
{
    // The slot under a stand-in walk: the trace layer caches whatever
    // its caller walked, keyed by the geometry of the first call.
    Trace t = mixedTrace(6, 1000);
    const TraceStore &s = t.store();
    const MemoryGeometry g1{8192, 32, 2, 1, 262144, 64, 4, 6, 30};
    MemoryGeometry g2 = g1;
    g2[6] = 8; // L2 ways
    unsigned walks = 0;
    auto walk = [&] {
        MemoryPass p;
        p.count[0] = ++walks;
        return p;
    };
    const size_t bytes = t.memoryBytes();
    EXPECT_FALSE(s.hasMemoryPass());
    const MemoryPass *p = s.memoryPass(g1, walk);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->geometry, g1);
    EXPECT_EQ(p->count[0], 1u);
    EXPECT_EQ(s.memoryPass(g1, walk), p); // built once
    EXPECT_EQ(walks, 1u);
    EXPECT_TRUE(s.hasMemoryPass());
    EXPECT_EQ(t.memoryBytes(), bytes); // not counted

    // Another geometry gets no pass and leaves the slot alone.
    EXPECT_EQ(s.memoryPass(g2, walk), nullptr);
    EXPECT_EQ(walks, 1u);
    EXPECT_EQ(s.memoryPass(g1, walk), p);

    // A copy never carries the pass, and a spill round trip adopts
    // fresh columns without one.
    Trace copy = t;
    EXPECT_FALSE(copy.store().hasMemoryPass());
    copy = t;
    EXPECT_FALSE(copy.store().hasMemoryPass());
    const Trace back = decodeTraceChunked(encodeTraceChunked(t, 4096));
    EXPECT_FALSE(back.store().hasMemoryPass());

    // push() and clear() drop it; the next call walks the new
    // contents, under whichever geometry asks first.
    t.push(*t.begin());
    EXPECT_FALSE(s.hasMemoryPass());
    p = s.memoryPass(g2, walk);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->count[0], 2u);
    EXPECT_EQ(s.memoryPass(g1, walk), nullptr);
    t.clear();
    EXPECT_FALSE(s.hasMemoryPass());
    EXPECT_EQ(s.memoryPass(g1, walk)->count[0], 3u);
}

/** One recorded trace of every sweep kernel, on one input. */
const std::vector<Trace> &
sweepTraces()
{
    static const std::vector<Trace> traces = [] {
        std::vector<Trace> v;
        for (const std::string &name : sweepKernelNames())
            v.push_back(traceMmKernel(mmKernelByName(name),
                                      standardImages()[0].image, 48));
        return v;
    }();
    return traces;
}

TEST(TraceStore, StoresOnlyWhatThePipelineReads)
{
    // One class byte per record, the a/b/result words of each
    // memoizable record and the address of each load and store:
    // fp-add, int-alu and branch records carry nothing else.
    uint64_t fp_adds = 0;
    for (size_t k = 0; k < sweepTraces().size(); k++) {
        SCOPED_TRACE(sweepKernelNames()[k]);
        const Trace &t = sweepTraces()[k];
        const TraceStore &s = t.store();
        const OpMix mix = t.mix();
        uint64_t memoizable = 0;
        for (unsigned c = 0; c < numInstClasses; c++) {
            const auto cls = static_cast<InstClass>(c);
            const TraceStore::ClassColumns &col = s.classColumns(cls);
            const uint64_t want = memoOperation(cls) ? mix[cls] : 0;
            EXPECT_EQ(TraceStore::hasOperands(cls),
                      memoOperation(cls).has_value());
            EXPECT_EQ(col.a.size(), want) << instClassName(cls);
            EXPECT_EQ(col.b.size(), want) << instClassName(cls);
            EXPECT_EQ(col.r.size(), want) << instClassName(cls);
            memoizable += want;
        }
        const uint64_t addrs = mix[InstClass::Load] + mix[InstClass::Store];
        EXPECT_EQ(s.opCount(), memoizable);
        EXPECT_EQ(s.addrCount(), addrs);
        EXPECT_EQ(t.memoryBytes(), t.size() + 24 * memoizable + 8 * addrs);

        uint64_t carrying = 0;
        for (const Instruction inst : t) {
            if (TraceStore::hasOperands(inst.cls) ||
                TraceStore::hasAddress(inst.cls))
                continue;
            if (inst.a || inst.b || inst.result || inst.addr)
                carrying++;
        }
        EXPECT_EQ(carrying, 0u);
        fp_adds += mix[InstClass::FpAdd];
    }
    EXPECT_GT(fp_adds, 0u); // the sweep does record fp adds
}

TEST(TraceStore, IterationYieldsEveryOperandTripleInClassOrder)
{
    for (size_t k = 0; k < sweepTraces().size(); k++) {
        SCOPED_TRACE(sweepKernelNames()[k]);
        const Trace &t = sweepTraces()[k];
        expectSamePartition(serialPartition(t), copyPartition(t.store()));
    }
}

TEST(TraceStore, CpuModelMatchesTheReferenceLoopOnLeanTraces)
{
    // The cycle model charges fp add by count; with no operands left
    // on those records it must still agree with the per-instruction
    // loop, with and without memo tables.
    CpuConfig cfg;
    CpuModel cpu(cfg);
    for (size_t k = 0; k < sweepTraces().size(); k++) {
        SCOPED_TRACE(sweepKernelNames()[k]);
        const Trace &t = sweepTraces()[k];
        auto d = check::simResultDiff(check::referenceCpuRun(cfg, t),
                                      cpu.run(t));
        EXPECT_FALSE(d) << "baseline: " << *d;
        MemoBank got = MemoBank::standard(MemoConfig{});
        MemoBank want = MemoBank::standard(MemoConfig{});
        d = check::simResultDiff(check::referenceCpuRun(cfg, t, &want),
                                 cpu.run(t, &got));
        EXPECT_FALSE(d) << "memoized: " << *d;
    }
}

} // anonymous namespace
} // namespace memo
