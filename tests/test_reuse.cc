/**
 * @file
 * Tests for reuse-distance analysis (analysis/reuse), including the
 * defining cross-check: the predicted hit ratio of a fully
 * associative LRU table equals the simulated one at every size.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/experiment.hh"
#include "analysis/reuse.hh"
#include "arith/fp.hh"
#include "check/golden.hh"
#include "core/memo_table.hh"
#include "img/generate.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

TEST(Reuse, ColdMissesOnly)
{
    Trace trace;
    Recorder rec(trace);
    for (int i = 2; i < 50; i++)
        rec.div(static_cast<double>(i) + 0.5, 3.0);
    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    EXPECT_EQ(prof.accesses(), 48u);
    EXPECT_EQ(prof.coldMisses(), 48u);
    EXPECT_DOUBLE_EQ(prof.predictedHitRatio(1024), 0.0);
}

TEST(Reuse, ImmediateReuseIsDistanceOne)
{
    Trace trace;
    Recorder rec(trace);
    rec.div(10.0, 3.0);
    rec.div(10.0, 3.0);
    rec.div(10.0, 3.0);
    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    EXPECT_EQ(prof.coldMisses(), 1u);
    EXPECT_EQ(prof.histogram()[0], 2u); // position 1
    EXPECT_DOUBLE_EQ(prof.predictedHitRatio(1), 2.0 / 3.0);
}

TEST(Reuse, InterveningKeysRaiseDistance)
{
    Trace trace;
    Recorder rec(trace);
    rec.div(10.0, 3.0); // A
    rec.div(20.0, 3.0); // B
    rec.div(30.0, 3.0); // C
    rec.div(10.0, 3.0); // A again: distance 3 (B, C between)
    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    EXPECT_EQ(prof.coldMisses(), 3u);
    EXPECT_EQ(prof.histogram()[2], 1u); // 2 others -> position 3
    EXPECT_DOUBLE_EQ(prof.predictedHitRatio(2), 0.0);
    EXPECT_DOUBLE_EQ(prof.predictedHitRatio(3), 0.25);
}

TEST(Reuse, TrivialOpsExcluded)
{
    Trace trace;
    Recorder rec(trace);
    rec.div(10.0, 1.0); // trivial: div by one
    rec.div(0.0, 3.0);  // trivial: zero dividend
    rec.div(10.0, 3.0);
    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    EXPECT_EQ(prof.accesses(), 1u);
}

TEST(Reuse, CommutativePairsCanonicalized)
{
    Trace trace;
    Recorder rec(trace);
    rec.mul(3.0, 7.0);
    rec.mul(7.0, 3.0); // same pair, reversed
    ReuseProfile prof = reuseProfile(trace, Operation::FpMul);
    EXPECT_EQ(prof.coldMisses(), 1u);
    EXPECT_EQ(prof.histogram()[0], 1u);
}

TEST(Reuse, EntriesForHitRatio)
{
    Trace trace;
    Recorder rec(trace);
    // Cycle through 4 pairs repeatedly: hits need >= 4 entries.
    for (int r = 0; r < 10; r++)
        for (int k = 0; k < 4; k++)
            rec.div(10.0 + k, 3.0);
    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    EXPECT_EQ(prof.entriesForHitRatio(0.5), 4u);
    EXPECT_DOUBLE_EQ(prof.predictedHitRatio(3), 0.0);
    EXPECT_NEAR(prof.predictedHitRatio(4), 36.0 / 40.0, 1e-12);
}

TEST(Reuse, PredictionMatchesFullyAssociativeSimulation)
{
    // Build a stream with a mix of distances, then compare against a
    // fully associative LRU MemoTable at several sizes.
    Trace trace;
    Recorder rec(trace);
    uint64_t z = 99;
    for (int i = 0; i < 4000; i++) {
        z = z * 6364136223846793005ULL + 1442695040888963407ULL;
        double a = 1.0 + static_cast<double>((z >> 32) % 96) / 16.0;
        double b = 2.0 + static_cast<double>((z >> 16) % 6);
        rec.div(a, b);
    }

    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    for (unsigned entries : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = entries; // fully associative LRU
        MemoTable table(Operation::FpDiv, cfg);
        for (const auto &inst : trace) {
            if (inst.cls != InstClass::FpDiv)
                continue;
            if (!table.lookup(inst.a, inst.b))
                table.update(inst.a, inst.b, inst.result);
        }
        EXPECT_DOUBLE_EQ(prof.predictedHitRatio(entries),
                         table.stats().hitRatio())
            << entries;
    }
}

TEST(Reuse, HottestPairs)
{
    Trace trace;
    Recorder rec(trace);
    for (int i = 0; i < 10; i++)
        rec.div(10.0, 3.0);
    for (int i = 0; i < 5; i++)
        rec.div(20.0, 3.0);
    rec.div(30.0, 3.0);
    rec.div(7.0, 1.0); // trivial, excluded

    auto hot = hottestPairs(trace, Operation::FpDiv, 2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(fpFromBits(hot[0].aBits), 10.0);
    EXPECT_EQ(hot[0].count, 10u);
    EXPECT_EQ(fpFromBits(hot[1].aBits), 20.0);
    EXPECT_EQ(hot[1].count, 5u);
}

TEST(Reuse, HottestPairsDeterministicTieOrder)
{
    // Pairs with equal counts must come back in operand order, not
    // in the hash map's iteration order: the old comparator sorted
    // by count alone, so which tied pair ranked first varied across
    // standard libraries (memo-lint DET-001 regression).
    Trace trace;
    Recorder rec(trace);
    for (double a : {9.0, 5.0, 3.0, 7.0}) {
        rec.div(a, 2.0);
        rec.div(a, 2.0);
    }
    auto hot = hottestPairs(trace, Operation::FpDiv, 4);
    ASSERT_EQ(hot.size(), 4u);
    for (size_t i = 0; i < hot.size(); i++)
        EXPECT_EQ(hot[i].count, 2u);
    // Positive doubles order the same by bits as by value.
    for (size_t i = 1; i < hot.size(); i++)
        EXPECT_LT(hot[i - 1].aBits, hot[i].aBits);
}

TEST(Reuse, HottestPairsCommutative)
{
    Trace trace;
    Recorder rec(trace);
    rec.mul(3.0, 7.0);
    rec.mul(7.0, 3.0);
    auto hot = hottestPairs(trace, Operation::FpMul, 5);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0].count, 2u);
}

TEST(Reuse, MonotoneInEntries)
{
    Trace trace;
    Recorder rec(trace);
    for (int i = 0; i < 500; i++)
        rec.div(10.0 + (i * 13) % 37, 3.0);
    ReuseProfile prof = reuseProfile(trace, Operation::FpDiv);
    double prev = 0.0;
    for (unsigned n = 1; n <= 64; n *= 2) {
        double hr = prof.predictedHitRatio(n);
        EXPECT_GE(hr, prev);
        prev = hr;
    }
}

TEST(Reuse, BothNaNFpMulPairsKeepOperandOrder)
{
    // The unit returns the first NaN's payload, so the table matches a
    // both-NaN pair in operand order only: (n1, n2) and (n2, n1) are
    // two entries, each reused at stack distance 2.
    const uint64_t n1 = 0x7ff8000000000001ULL;
    const uint64_t n2 = 0x7ff8000000000002ULL;
    Trace trace;
    for (int i = 0; i < 8; i++) {
        Instruction inst;
        inst.cls = InstClass::FpMul;
        inst.a = i % 2 ? n2 : n1;
        inst.b = i % 2 ? n1 : n2;
        inst.result = fpBits(fpFromBits(inst.a) * fpFromBits(inst.b));
        trace.push(inst);
    }
    MemoConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    MemoTable table(Operation::FpMul, cfg);
    for (const Instruction &inst : trace)
        if (!table.lookup(inst.a, inst.b))
            table.update(inst.a, inst.b, inst.result);
    EXPECT_EQ(table.stats().hits, 6u);
    EXPECT_DOUBLE_EQ(
        reuseProfile(trace, Operation::FpMul).predictedHitRatio(4),
        table.stats().hitRatio());

    auto hot = hottestPairs(trace, Operation::FpMul, 5);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].aBits, n1);
    EXPECT_EQ(hot[0].bBits, n2);
    EXPECT_EQ(hot[0].count, 4u);
    EXPECT_EQ(hot[1].aBits, n2);
    EXPECT_EQ(hot[1].bBits, n1);
    EXPECT_EQ(hot[1].count, 4u);

    // Only the three paper units have a key stream.
    EXPECT_THROW(reuseProfile(trace, Operation::FpSqrt),
                 std::invalid_argument);
}

/**
 * With full-value tags an infinite table misses exactly on each pair's
 * first touch, so its misses are coldMisses() and its hits accesses()
 * minus coldMisses() (ROADMAP item 3). Checked against the table
 * itself on every Table 5/6 workload and on every Table 7 kernel over
 * two images.
 */
void
expectInfiniteTableMatchesProfile(const Trace &trace,
                                  const std::string &what)
{
    MemoConfig inf;
    inf.infinite = true;
    MemoBank bank = MemoBank::standard(inf);
    replayMemo(trace, bank);
    for (Operation op :
         {Operation::IntMul, Operation::FpMul, Operation::FpDiv}) {
        const MemoStats &s = bank.table(op)->stats();
        ReuseProfile prof = reuseProfile(trace, op);
        const std::string where =
            what + " " + std::string(operationName(op));
        EXPECT_EQ(s.lookups, prof.accesses()) << where;
        EXPECT_EQ(s.misses, prof.coldMisses()) << where;
        EXPECT_EQ(s.hits, prof.accesses() - prof.coldMisses()) << where;
    }
}

TEST(Reuse, InfiniteTableMissesAreColdMisses)
{
    for (const auto *suite : {&perfectWorkloads(), &specWorkloads()})
        for (const SciWorkload &w : *suite)
            expectInfiniteTableMatchesProfile(*cachedSciTrace(w), w.name);
    for (const MmKernel &k : mmKernels())
        for (size_t img : {size_t{0}, size_t{5}})
            expectInfiniteTableMatchesProfile(
                *cachedMmKernelTrace(k, standardImages()[img],
                                     check::goldenCrop),
                k.name + "/" + standardImages()[img].name);
}

} // anonymous namespace
} // namespace memo
