/**
 * @file
 * Semantic checks on the scientific workload analogues: the miniature
 * numerical cores behave like the physics they imitate, so the value
 * streams feeding the tables are genuine.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arith/fp.hh"
#include "workloads/sci_kernels.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

TEST(SciSemantics, QcdOperandPairsNeverRepeat)
{
    // The Monte-Carlo analogue's whole point: fresh random operand
    // pairs on every update.
    Trace trace;
    Recorder rec(trace);
    runQcd(rec);
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (const auto &inst : trace)
        if (inst.cls == InstClass::FpMul)
            pairs.emplace_back(inst.a, inst.b);
    ASSERT_GT(pairs.size(), 1000u);
    std::sort(pairs.begin(), pairs.end());
    size_t dupes = 0;
    for (size_t i = 1; i < pairs.size(); i++)
        dupes += pairs[i] == pairs[i - 1];
    EXPECT_LT(dupes, pairs.size() / 100);
}

TEST(SciSemantics, Hydro2dStateStaysQuantized)
{
    // The shock-tube analogue keeps density on a discrete lattice —
    // the mechanism behind its paper-matching high hit ratios.
    Trace trace;
    Recorder rec(trace);
    runHydro2d(rec);
    std::vector<double> divisors;
    for (const auto &inst : trace)
        if (inst.cls == InstClass::FpDiv)
            divisors.push_back(fpFromBits(inst.b));
    ASSERT_GT(divisors.size(), 100u);
    size_t off_lattice = 0;
    for (double v : divisors) {
        double scaled = v * 384.0;
        if (std::fabs(scaled - std::round(scaled)) > 1e-9)
            off_lattice++;
    }
    // The lattice-quantized densities dominate the divisor stream;
    // only the adaptive-time-step divisions are continuous.
    EXPECT_LT(off_lattice, divisors.size() / 2);
}

TEST(SciSemantics, TrackVariancesConverge)
{
    // Kalman gains settle: late-scan innovation variances repeat
    // (the float-rounding freeze), which is what the infinite table
    // exploits in Table 5.
    Trace trace;
    Recorder rec(trace);
    runTrack(rec);
    std::vector<double> divisors;
    for (const auto &inst : trace)
        if (inst.cls == InstClass::FpDiv)
            divisors.push_back(fpFromBits(inst.b));
    ASSERT_GT(divisors.size(), 2000u);
    // Compare the last two scans' divisor sets: converged filters
    // produce identical values.
    size_t n = divisors.size();
    size_t scan = 96; // targets per scan
    size_t identical = 0;
    for (size_t i = 0; i < scan; i++)
        identical += fpExactEq(divisors[n - scan + i],
                               divisors[n - 2 * scan + i]);
    EXPECT_GT(identical, scan * 3 / 4);
}

TEST(SciSemantics, OceanDivisorsAreStaticDepths)
{
    // The stream-function relaxation divides by a static depth field:
    // every sweep reuses the same divisor multiset.
    Trace trace;
    Recorder rec(trace);
    runOcean(rec);
    std::vector<double> divisors;
    for (const auto &inst : trace)
        if (inst.cls == InstClass::FpDiv)
            divisors.push_back(fpFromBits(inst.b));
    size_t cells = 38 * 38; // interior cells per sweep
    ASSERT_GE(divisors.size(), 2 * cells);
    for (size_t i = 0; i < cells; i += 37)
        EXPECT_EQ(divisors[i], divisors[i + cells]);
}

TEST(SciSemantics, TomcatvRelaxationReducesResidual)
{
    // The mesh relaxes: the correction magnitudes shrink over
    // iterations (a genuinely converging solver).
    Trace trace;
    Recorder rec(trace);
    runTomcatv(rec);
    std::vector<double> w_values;
    for (const auto &inst : trace) {
        if (inst.cls != InstClass::FpMul)
            continue;
        // Exact compare against the 0.45 literal the workload
        // itself multiplies by.
        if (fpExactEq(fpFromBits(inst.a), 0.45)) // the relaxation-weight muls
            w_values.push_back(std::fabs(fpFromBits(inst.b)));
    }
    ASSERT_GT(w_values.size(), 1000u);
    double early = 0.0, late = 0.0;
    size_t q = w_values.size() / 4;
    for (size_t i = 0; i < q; i++) {
        early += w_values[i];
        late += w_values[w_values.size() - 1 - i];
    }
    EXPECT_LT(late, early);
}

} // anonymous namespace
} // namespace memo
