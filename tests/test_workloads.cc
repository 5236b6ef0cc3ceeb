/**
 * @file
 * Tests for the workload registry: every kernel runs, issues the
 * operation classes it declares, and produces deterministic traces.
 */

#include <gtest/gtest.h>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "img/generate.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

TEST(Registry, KernelCounts)
{
    EXPECT_EQ(mmKernels().size(), 18u); // Table 7's 17 plus vsqrt
    EXPECT_EQ(perfectWorkloads().size(), 9u);
    EXPECT_EQ(specWorkloads().size(), 10u);
}

TEST(Registry, LookupByName)
{
    EXPECT_EQ(mmKernelByName("vcost").name, "vcost");
    EXPECT_EQ(sciWorkloadByName("hydro2d").suite, "SPEC");
    EXPECT_EQ(sciWorkloadByName("TRFD").suite, "Perfect");
    EXPECT_THROW(mmKernelByName("nope"), std::out_of_range);
    EXPECT_THROW(sciWorkloadByName("nope"), std::out_of_range);
}

TEST(Registry, SweepKernelsExist)
{
    ASSERT_EQ(sweepKernelNames().size(), 5u);
    for (const auto &name : sweepKernelNames())
        EXPECT_NO_THROW(mmKernelByName(name));
}

TEST(MmKernels, EveryKernelRunsAndIssuesDeclaredOps)
{
    const Image &input = imageByName("Muppet1").image;
    for (const auto &kernel : mmKernels()) {
        Trace trace = traceMmKernel(kernel, input, 64);
        ASSERT_GT(trace.size(), 1000u) << kernel.name;
        OpMix mix = trace.mix();

        EXPECT_EQ(mix[InstClass::IntMul] > 0, kernel.usesIntMul)
            << kernel.name;
        EXPECT_EQ(mix[InstClass::FpMul] > 0, kernel.usesFpMul)
            << kernel.name;
        EXPECT_EQ(mix[InstClass::FpDiv] > 0, kernel.usesFpDiv)
            << kernel.name;
        // Every kernel reads its input and does bookkeeping.
        EXPECT_GT(mix[InstClass::Load], 0u) << kernel.name;
        EXPECT_GT(mix[InstClass::Branch], 0u) << kernel.name;
    }
}

TEST(MmKernels, TracesAreDeterministic)
{
    const Image &input = imageByName("chroms").image;
    for (const auto &kernel : mmKernels()) {
        Trace t1 = traceMmKernel(kernel, input, 64);
        Trace t2 = traceMmKernel(kernel, input, 64);
        ASSERT_EQ(t1.size(), t2.size()) << kernel.name;
        size_t i = 0;
        for (auto x = t1.begin(), y = t2.begin(); x != t1.end();
             ++x, ++y, ++i) {
            if (i % 97)
                continue;
            EXPECT_EQ((*x).a, (*y).a) << kernel.name;
            EXPECT_EQ((*x).result, (*y).result) << kernel.name;
        }
    }
}

TEST(SciWorkloads, EveryWorkloadRunsAndIssuesDeclaredOps)
{
    auto check = [](const SciWorkload &w) {
        Trace trace = traceSciWorkload(w);
        ASSERT_GT(trace.size(), 1000u) << w.name;
        OpMix mix = trace.mix();
        EXPECT_EQ(mix[InstClass::IntMul] > 0, w.usesIntMul) << w.name;
        EXPECT_EQ(mix[InstClass::FpMul] > 0, w.usesFpMul) << w.name;
        EXPECT_EQ(mix[InstClass::FpDiv] > 0, w.usesFpDiv) << w.name;
    };
    for (const auto &w : perfectWorkloads())
        check(w);
    for (const auto &w : specWorkloads())
        check(w);
}

TEST(SciWorkloads, MemoizableOpsCarryConsistentResults)
{
    // Every recorded mul/div result must equal the native operation on
    // its recorded operands: the property the memo simulator relies on.
    for (const auto &w : perfectWorkloads()) {
        Trace trace = traceSciWorkload(w);
        for (const auto &inst : trace) {
            if (inst.cls == InstClass::FpMul) {
                double a = fpFromBits(inst.a), b = fpFromBits(inst.b);
                EXPECT_EQ(fpBits(a * b), inst.result) << w.name;
            } else if (inst.cls == InstClass::FpDiv) {
                double a = fpFromBits(inst.a), b = fpFromBits(inst.b);
                EXPECT_EQ(fpBits(a / b), inst.result) << w.name;
            }
        }
    }
}

TEST(Experiment, CropPreservesContentWindow)
{
    const Image &big = imageByName("lenna.rgb").image;
    Image crop = cropForTrace(big, 96);
    EXPECT_EQ(crop.width(), 96);
    EXPECT_EQ(crop.height(), 96);
    EXPECT_EQ(crop.bands(), big.bands());
    // Centre crop: the middle pixel is preserved.
    EXPECT_EQ(crop.at(48, 48, 0),
              big.at((big.width() - 96) / 2 + 48,
                     (big.height() - 96) / 2 + 48, 0));
}

TEST(Experiment, CropLeavesSmallImagesAlone)
{
    const Image &small = imageByName("chroms").image; // 64x64
    Image crop = cropForTrace(small, 128);
    EXPECT_EQ(crop.width(), 64);
    EXPECT_EQ(crop.raw(), small.raw());
}

TEST(Experiment, ReplayMemoFeedsTables)
{
    Trace trace;
    Recorder rec(trace);
    rec.div(10.0, 3.0);
    rec.div(10.0, 3.0);
    rec.alu(5);

    MemoBank bank = MemoBank::standard(MemoConfig{});
    replayMemo(trace, bank);
    const MemoStats &s = bank.table(Operation::FpDiv)->stats();
    EXPECT_EQ(s.lookups, 2u);
    EXPECT_EQ(s.hits, 1u);
}

TEST(Experiment, HitsOfReportsAbsentUnits)
{
    MemoBank bank = MemoBank::standard(MemoConfig{});
    UnitHits h = hitsOf(bank);
    EXPECT_LT(h.intMul, 0.0);
    EXPECT_LT(h.fpMul, 0.0);
    EXPECT_LT(h.fpDiv, 0.0);
}

TEST(Experiment, InfiniteAtLeastAsGoodAsFinite)
{
    MemoConfig c32;
    MemoConfig cinf;
    cinf.infinite = true;
    for (const auto &name : {"vcost", "venhance", "vgpwl"}) {
        const MmKernel &k = mmKernelByName(name);
        const Image &img = imageByName("Muppet1").image;
        UnitHits h32 = measureMmKernelOnImage(k, img, c32, 64);
        UnitHits hinf = measureMmKernelOnImage(k, img, cinf, 64);
        if (h32.fpMul >= 0.0) {
            EXPECT_LE(h32.fpMul, hinf.fpMul + 1e-9) << name;
        }
        if (h32.fpDiv >= 0.0) {
            EXPECT_LE(h32.fpDiv, hinf.fpDiv + 1e-9) << name;
        }
    }
}

} // anonymous namespace
} // namespace memo
