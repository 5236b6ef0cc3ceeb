/**
 * @file
 * The table-design ablations as assertions on recorded kernel traces,
 * with MemoTable alone: index hash, replacement, reuse distance and a
 * sqrt table. `memo-sim --hash/--repl/--reuse` prints the same
 * quantities for any workload.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>

#include "analysis/experiment.hh"
#include "analysis/reuse.hh"
#include "img/generate.hh"
#include "sim/cpu.hh"

namespace memo
{
namespace
{

/** A kernel's trace on the chroms input, centre-cropped to 48x48. */
std::shared_ptr<const Trace>
kernelTrace(const std::string &name)
{
    return cachedMmKernelTrace(mmKernelByName(name), imageByName("chroms"),
                               48);
}

/** Kernels that square values (x*x) and divide. */
class SquaringKernel : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SquaringKernel, AdditiveHashRecoversTheSquaresPaperXorLoses)
{
    // The paper's XOR index sends every square to set 0; the additive
    // index spreads them. Division has no squares to lose.
    UnitHits hits[2];
    for (HashScheme h : {HashScheme::PaperXor, HashScheme::Additive}) {
        MemoBank bank = MemoBank::standard({.hashScheme = h});
        replayMemo(*kernelTrace(GetParam()), bank);
        hits[static_cast<unsigned>(h)] = hitsOf(bank);
    }
    EXPECT_GT(hits[1].fpMul, hits[0].fpMul + 0.10);
    EXPECT_NEAR(hits[1].fpDiv, hits[0].fpDiv, 0.03);
}

TEST_P(SquaringKernel, ReuseDistancePredictsFullyAssociativeLru)
{
    // The stack-distance histogram of a recorded division stream gives
    // the fully associative LRU hit ratio at every size exactly.
    const auto trace = kernelTrace(GetParam());
    ReuseProfile prof = reuseProfile(*trace, Operation::FpDiv);
    ASSERT_GT(prof.accesses(), 0u);
    for (unsigned entries : {4u, 32u, 256u}) {
        MemoBank bank;
        bank.addTable(Operation::FpDiv, {.entries = entries,
                                         .ways = entries});
        replayMemo(*trace, bank);
        EXPECT_DOUBLE_EQ(prof.predictedHitRatio(entries),
                         bank.table(Operation::FpDiv)->stats().hitRatio())
            << entries << " entries";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SquaringKernel,
    ::testing::Values("venhance", "vspatial", "vkmeans"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(Ablation, ReplacementIsMootWhenTheWorkingSetFits)
{
    // A fully associative table with an entry for every distinct
    // division never evicts, so LRU, FIFO and random replacement see
    // the same hits; the policy only matters under pressure.
    const auto trace = kernelTrace("vcost");
    ReuseProfile prof = reuseProfile(*trace, Operation::FpDiv);
    ASSERT_GT(prof.coldMisses(), 0u);
    const unsigned entries =
        std::bit_ceil(static_cast<unsigned>(prof.coldMisses()));
    for (Replacement r : {Replacement::Lru, Replacement::Fifo,
                          Replacement::Random}) {
        MemoBank bank;
        bank.addTable(Operation::FpDiv,
                      {.entries = entries, .ways = entries,
                       .replacement = r});
        replayMemo(*trace, bank);
        const MemoStats &s = bank.table(Operation::FpDiv)->stats();
        EXPECT_EQ(s.evictions, 0u);
        EXPECT_EQ(s.misses, prof.coldMisses());
        EXPECT_EQ(s.hits, prof.accesses() - prof.coldMisses());
    }
}

TEST(Ablation, MemoizingSqrtSpeedsUpSqrtKernels)
{
    // Square roots in image code recur as divisions do: with a
    // 15-cycle sqrt unit, a sqrt table beside the mult/div tables hits
    // on most of vsqrt's roots and saves cycles, and changes nothing
    // on a kernel that takes no roots.
    CpuConfig cfg;
    cfg.lat[InstClass::FpSqrt] = 15;
    CpuModel cpu(cfg);
    auto run = [&](const char *kernel, bool sqrt_table) {
        MemoBank bank = MemoBank::standard(MemoConfig{});
        if (sqrt_table)
            bank.addTable(Operation::FpSqrt, MemoConfig{});
        return cpu.run(*kernelTrace(kernel), &bank);
    };
    SimResult with = run("vsqrt", true);
    EXPECT_GT(with.memo.at(Operation::FpSqrt).hitRatio(), 0.5);
    EXPECT_LT(with.totalCycles, run("vsqrt", false).totalCycles);
    ASSERT_EQ(kernelTrace("vkmeans")->mix()[InstClass::FpSqrt], 0u);
    EXPECT_EQ(run("vkmeans", true).totalCycles,
              run("vkmeans", false).totalCycles);
}

} // anonymous namespace
} // namespace memo
