/**
 * @file
 * Cross-cutting consistency tests: the MemoBank facade, registry
 * metadata coherence, experiment-driver equivalences, and odds and
 * ends of the recorder and image modules.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "core/bank.hh"
#include "img/generate.hh"
#include "img/pnm.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

TEST(MemoBank, StandardHasThreePaperUnits)
{
    MemoBank bank = MemoBank::standard(MemoConfig{});
    EXPECT_NE(bank.table(Operation::IntMul), nullptr);
    EXPECT_NE(bank.table(Operation::FpMul), nullptr);
    EXPECT_NE(bank.table(Operation::FpDiv), nullptr);
    EXPECT_EQ(bank.table(Operation::FpSqrt), nullptr);
}

TEST(MemoBank, AddTableAndReset)
{
    MemoBank bank;
    bank.addTable(Operation::FpSqrt, MemoConfig{});
    MemoTable *t = bank.table(Operation::FpSqrt);
    ASSERT_NE(t, nullptr);
    t->update(fpBits(4.0), 0, fpBits(2.0));
    EXPECT_TRUE(t->lookup(fpBits(4.0)).has_value());
    bank.reset();
    EXPECT_FALSE(t->lookup(fpBits(4.0)).has_value());
    EXPECT_EQ(t->stats().lookups, 1u); // reset cleared earlier counts
}

TEST(Registry, MmFlagsMatchPaperColumns)
{
    // A kernel declares a unit iff the paper's table has a number
    // (not '-') in that column.
    for (const auto &k : mmKernels()) {
        EXPECT_EQ(k.usesIntMul, k.paper.intMul32 >= 0.0) << k.name;
        EXPECT_EQ(k.usesFpMul, k.paper.fpMul32 >= 0.0) << k.name;
        EXPECT_EQ(k.usesFpDiv, k.paper.fpDiv32 >= 0.0) << k.name;
    }
}

TEST(Registry, SciFlagsMatchPaperColumns)
{
    auto check = [](const SciWorkload &w) {
        EXPECT_EQ(w.usesIntMul, w.paper.intMul32 >= 0.0) << w.name;
        EXPECT_EQ(w.usesFpMul, w.paper.fpMul32 >= 0.0) << w.name;
        EXPECT_EQ(w.usesFpDiv, w.paper.fpDiv32 >= 0.0) << w.name;
    };
    for (const auto &w : perfectWorkloads())
        check(w);
    for (const auto &w : specWorkloads())
        check(w);
}

TEST(Registry, PaperRatiosAreRatios)
{
    auto check = [](const PaperHits &p, const std::string &name) {
        for (double v : {p.intMul32, p.fpMul32, p.fpDiv32, p.intMulInf,
                         p.fpMulInf, p.fpDivInf}) {
            if (v >= 0.0)
                EXPECT_LE(v, 1.0) << name;
            else
                EXPECT_EQ(v, -1.0) << name;
        }
    };
    for (const auto &k : mmKernels())
        check(k.paper, k.name);
    for (const auto &w : perfectWorkloads())
        check(w.paper, w.name);
}

TEST(Experiment, ConfigSweepMatchesSingleMeasurements)
{
    // measureMmKernelConfigs shares traces; the results must equal
    // independent one-config sweeps exactly (determinism).
    const MmKernel &k = mmKernelByName("vgpwl");
    MemoConfig a; // 32/4
    MemoConfig b;
    b.entries = 8;
    b.ways = 2;

    auto both = measureMmKernelConfigs(k, {a, b}, 64);
    UnitHits ha = measureMmKernelConfigs(k, {a}, 64)[0];
    UnitHits hb = measureMmKernelConfigs(k, {b}, 64)[0];
    EXPECT_DOUBLE_EQ(both[0].fpDiv, ha.fpDiv);
    EXPECT_DOUBLE_EQ(both[0].fpMul, ha.fpMul);
    EXPECT_DOUBLE_EQ(both[1].fpDiv, hb.fpDiv);
    EXPECT_DOUBLE_EQ(both[1].fpMul, hb.fpMul);
}

TEST(Recorder, IntegerLoadStore)
{
    Trace trace;
    Recorder rec(trace);
    int64_t cell = 41;
    int64_t v = rec.load(cell);
    EXPECT_EQ(v, 41);
    rec.store(cell, int64_t{42});
    EXPECT_EQ(cell, 42);
    EXPECT_EQ(trace.mix()[InstClass::Load], 1u);
    EXPECT_EQ(trace.mix()[InstClass::Store], 1u);
}

TEST(Pnm, RejectsLargeMaxval)
{
    std::stringstream ss("P5\n2 2\n65535\n....");
    EXPECT_THROW(readPnm(ss), std::runtime_error);
}

TEST(Pnm, AsciiColor)
{
    std::stringstream ss("P3\n1 1\n255\n10 20 30\n");
    Image img = readPnm(ss);
    EXPECT_EQ(img.bands(), 3);
    EXPECT_EQ(img.at(0, 0, 0), 10.0f);
    EXPECT_EQ(img.at(0, 0, 2), 30.0f);
}

TEST(Pnm, GarbageNeverCrashes)
{
    // Deterministic fuzz: arbitrary byte soup must throw, not crash.
    uint64_t z = 555;
    for (int round = 0; round < 200; round++) {
        std::string junk;
        for (int i = 0; i < 64; i++) {
            z = z * 6364136223846793005ULL + 1;
            junk.push_back(static_cast<char>(z >> 33));
        }
        std::stringstream ss(junk);
        try {
            Image img = readPnm(ss);
            // Parsing random bytes as ASCII PNM can occasionally
            // succeed; any returned image must at least be sane.
            EXPECT_GT(img.samples(), 0u);
        } catch (const std::runtime_error &) {
            // expected for almost all inputs
        }
    }
}

TEST(Generate, StarfieldIsByteTyped)
{
    Image star = genStarfield(64, 64, 3);
    EXPECT_EQ(star.type(), PixelType::Byte);
    EXPECT_LE(star.maxValue(), 255.0f);
    EXPECT_GE(star.minValue(), 0.0f);
}

TEST(Generate, LabelsDeterministic)
{
    Image a = genLabels(64, 64, 8, 42);
    Image b = genLabels(64, 64, 8, 42);
    EXPECT_EQ(a.raw(), b.raw());
}

} // anonymous namespace
} // namespace memo
