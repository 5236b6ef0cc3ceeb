/**
 * @file
 * Tests for the latency presets, the serial CPU cycle model and the
 * Amdahl decomposition.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "check/measure.hh"
#include "check/oracle.hh"
#include "core/hooks.hh"
#include "core/phase.hh"
#include "img/generate.hh"
#include "sim/amdahl.hh"
#include "sim/cpu.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

TEST(Latency, Table1Presets)
{
    auto check = [](CpuPreset p, unsigned mul, unsigned div) {
        LatencyConfig cfg = LatencyConfig::preset(p);
        EXPECT_EQ(cfg[InstClass::FpMul], mul) << presetName(p);
        EXPECT_EQ(cfg[InstClass::FpDiv], div) << presetName(p);
    };
    check(CpuPreset::PentiumPro, 3, 39);
    check(CpuPreset::Alpha21164, 4, 31);
    check(CpuPreset::MipsR10000, 2, 40);
    check(CpuPreset::Ppc604e, 5, 31);
    check(CpuPreset::UltraSparcII, 3, 22);
    check(CpuPreset::Pa8000, 5, 31);
    check(CpuPreset::FastFpu, 3, 13);
    check(CpuPreset::SlowFpu, 5, 39);
}

TEST(Latency, CustomKeepsBaseMachine)
{
    LatencyConfig cfg = LatencyConfig::custom(7, 50);
    EXPECT_EQ(cfg[InstClass::FpMul], 7u);
    EXPECT_EQ(cfg[InstClass::FpDiv], 50u);
    EXPECT_EQ(cfg[InstClass::IntAlu], 1u);
    EXPECT_EQ(cfg[InstClass::Branch], 1u);
}

/** A small deterministic trace with reuse in the divisions. */
Trace
makeDivTrace(int repeats)
{
    Trace trace;
    Recorder rec(trace);
    for (int r = 0; r < repeats; r++) {
        for (double b : {3.0, 5.0, 7.0}) {
            rec.div(10.0, b);
            rec.alu(2);
        }
    }
    return trace;
}

TEST(CpuModel, BaselineCycleAccounting)
{
    Trace trace = makeDivTrace(1); // 3 divs + 6 alus
    CpuModel cpu;
    SimResult res = cpu.run(trace);
    // FastFpu: div=13, alu=1.
    EXPECT_EQ(res.totalCycles, 3u * 13u + 6u);
    EXPECT_EQ(res.cyclesOf(InstClass::FpDiv), 39u);
    EXPECT_EQ(res.countOf(InstClass::FpDiv), 3u);
    EXPECT_DOUBLE_EQ(res.cycleFraction(InstClass::FpDiv),
                     39.0 / 45.0);
}

TEST(CpuModel, MemoHitsCostOneCycle)
{
    Trace trace = makeDivTrace(10); // 30 divs: 3 distinct pairs
    CpuModel cpu;
    MemoBank bank = MemoBank::standard(MemoConfig{});
    SimResult res = cpu.run(trace, &bank);

    // 3 cold misses at 13 cycles, 27 hits at 1 cycle.
    EXPECT_EQ(res.cyclesOf(InstClass::FpDiv), 3u * 13u + 27u * 1u);
    EXPECT_EQ(res.memo.at(Operation::FpDiv).hits, 27u);
    EXPECT_EQ(res.memo.at(Operation::FpDiv).misses, 3u);
}

TEST(CpuModel, MemoNeverSlower)
{
    Trace trace = makeDivTrace(5);
    CpuModel cpu;
    SimResult base = cpu.run(trace);
    MemoBank bank = MemoBank::standard(MemoConfig{});
    SimResult memo = cpu.run(trace, &bank);
    EXPECT_LE(memo.totalCycles, base.totalCycles);
}

TEST(CpuModel, LoadsChargeHierarchy)
{
    Trace trace;
    Recorder rec(trace);
    double x = 1.0;
    rec.load(x); // cold: memory latency
    rec.load(x); // hot: L1
    CpuModel cpu;
    SimResult res = cpu.run(trace);
    EXPECT_EQ(res.cyclesOf(InstClass::Load), 30u + 1u);
    EXPECT_EQ(res.l1.accesses, 2u);
    EXPECT_EQ(res.l1.hits, 1u);
}

TEST(CpuModel, TrivialOpsNotMemoized)
{
    Trace trace;
    Recorder rec(trace);
    rec.mul(1.0, 5.0);
    rec.mul(1.0, 5.0);
    CpuModel cpu;
    MemoBank bank = MemoBank::standard(MemoConfig{});
    SimResult res = cpu.run(trace, &bank);
    // Both multiplications paid full latency; the table saw nothing.
    EXPECT_EQ(res.cyclesOf(InstClass::FpMul), 6u);
    EXPECT_EQ(res.memo.at(Operation::FpMul).lookups, 0u);
    EXPECT_EQ(res.memo.at(Operation::FpMul).trivialBypassed, 2u);
}

TEST(CpuModel, AnnulledDelaySlots)
{
    Trace trace;
    Recorder rec(trace);
    for (int i = 0; i < 100; i++)
        rec.branch();

    CpuConfig cfg;
    cfg.annulPerMille = 100; // 10% of branches annul a slot
    CpuModel cpu(cfg);
    SimResult res = cpu.run(trace);
    EXPECT_EQ(res.annulCycles, 10u);
    EXPECT_EQ(res.totalCycles, 100u + 10u);

    cfg.annulPerMille = 0;
    CpuModel no_annul(cfg);
    EXPECT_EQ(no_annul.run(trace).totalCycles, 100u);
}

/** One memoizable unit and how a recorder issues it. */
struct Unit
{
    const char *name;
    Operation op;
    void (*issue)(Recorder &, double a, double b);
};

void
PrintTo(const Unit &u, std::ostream *os)
{
    *os << u.name;
}

/** Every memoizable unit, priced and memoized by the same rule. */
class ComputeCost : public ::testing::TestWithParam<Unit>
{
};

TEST_P(ComputeCost, MissCostsTheConfiguredLatencyAndAHitOneCycle)
{
    // A compute instruction costs exactly cfg.lat[cls] on a miss and
    // one cycle on a hit, whatever its operands: three distinct
    // operand pairs issued five times each give three misses and
    // twelve hits.
    const Operation op = GetParam().op;
    const InstClass cls = instClassOf(op);
    Trace trace;
    {
        Recorder rec(trace);
        for (int r = 0; r < 5; r++)
            for (double a : {3.0, 5.0, 7.0})
                GetParam().issue(rec, a, a + 6.0);
    }

    CpuConfig cfg;
    cfg.lat[cls] = 17; // off every preset, so the model must read it
    CpuModel cpu(cfg);
    SimResult base = cpu.run(trace);
    EXPECT_EQ(base.countOf(cls), 15u);
    EXPECT_EQ(base.cyclesOf(cls), 15u * 17u);
    EXPECT_EQ(base.memoSavedOf(cls), 0u);

    MemoBank bank;
    bank.addTable(op, MemoConfig{});
    SimResult memo = cpu.run(trace, &bank);
    EXPECT_EQ(memo.memo.at(op).misses, 3u);
    EXPECT_EQ(memo.memo.at(op).hits, 12u);
    EXPECT_EQ(memo.cyclesOf(cls), 3u * 17u + 12u * 1u);
    EXPECT_EQ(memo.memoSavedOf(cls), 12u * (17u - 1u));
    EXPECT_EQ(memo.cyclesOf(cls) + memo.memoSavedOf(cls),
              base.cyclesOf(cls));
    EXPECT_EQ(memo.totalCycles + memo.totalMemoSaved(), base.totalCycles);
}

INSTANTIATE_TEST_SUITE_P(
    Units, ComputeCost,
    ::testing::Values(
        Unit{"IntMul", Operation::IntMul,
             [](Recorder &r, double a, double b) {
                 r.imul(static_cast<int64_t>(a), static_cast<int64_t>(b));
             }},
        Unit{"FpMul", Operation::FpMul,
             [](Recorder &r, double a, double b) { r.mul(a, b); }},
        Unit{"FpDiv", Operation::FpDiv,
             [](Recorder &r, double a, double b) { r.div(a, b); }},
        Unit{"FpSqrt", Operation::FpSqrt,
             [](Recorder &r, double a, double) { r.sqrt(a); }},
        Unit{"FpLog", Operation::FpLog,
             [](Recorder &r, double a, double) { r.log(a); }},
        Unit{"FpSin", Operation::FpSin,
             [](Recorder &r, double a, double) { r.sin(a); }},
        Unit{"FpCos", Operation::FpCos,
             [](Recorder &r, double a, double) { r.cos(a); }},
        Unit{"FpExp", Operation::FpExp,
             [](Recorder &r, double a, double) { r.exp(a); }}),
    [](const ::testing::TestParamInfo<Unit> &info) {
        return std::string(info.param.name);
    });

TEST(CpuModel, IntMulCostDoesNotDependOnOperandWidth)
{
    // The integer multiplier has one latency: narrow and wide operand
    // streams of the same length cost the same cycles.
    Trace narrow, wide;
    Recorder rn(narrow), rw(wide);
    for (int i = 0; i < 50; i++) {
        rn.imul(3 + i % 4, 5);
        rw.imul((int64_t{1} << 50) + i, (int64_t{1} << 50) + 2 * i);
    }
    CpuModel cpu;
    EXPECT_EQ(cpu.run(narrow).totalCycles, cpu.run(wide).totalCycles);
    EXPECT_EQ(cpu.run(narrow).cyclesOf(InstClass::IntMul), 50u * 5u);
}

TEST(CpuModel, OccupancyMovesHitsIntoTheFirstBucket)
{
    Trace trace = makeDivTrace(10); // 30 divs: 3 misses, 27 hits
    CpuModel cpu;
    const auto div = static_cast<unsigned>(InstClass::FpDiv);

    SimResult base = cpu.run(trace);
    EXPECT_EQ(base.occupancy[div].total(), 30u);
    EXPECT_EQ(base.occupancy[div].counts()[0], 0u);
    EXPECT_EQ(base.occupancy[div].sum(), 30u * 13u);

    MemoBank bank = MemoBank::standard(MemoConfig{});
    SimResult memo = cpu.run(trace, &bank);
    EXPECT_EQ(memo.occupancy[div].total(), 30u);
    EXPECT_EQ(memo.occupancy[div].counts()[0], 27u); // <= 1 cycle
    EXPECT_EQ(memo.occupancy[div].sum(), memo.cyclesOf(InstClass::FpDiv));
}

TEST(CpuModel, ProgressCounterSeesEveryInstructionOnce)
{
    Trace trace = makeDivTrace(7); // 21 divs + 42 alus
    std::atomic<uint64_t> progress{0};
    CpuConfig cfg;
    cfg.progress = &progress;
    CpuModel cpu(cfg);
    SimResult with = cpu.run(trace);
    EXPECT_EQ(progress.load(), trace.size());
    // A display-only sink: the cycle counts are those without it.
    EXPECT_EQ(with.totalCycles, CpuModel().run(trace).totalCycles);
}

TEST(Amdahl, SpeedupEnhancedFormula)
{
    // hr=0: no enhancement. hr=1: full dc x speedup.
    EXPECT_DOUBLE_EQ(speedupEnhanced(13, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(speedupEnhanced(13, 1.0), 13.0);
    // Paper Table 11, venhance: hr=.12, dc=13 -> SE=1.12.
    EXPECT_NEAR(speedupEnhanced(13, 0.12), 1.12, 0.005);
    // vsqrt: hr=.54, dc=13 -> SE=1.99.
    EXPECT_NEAR(speedupEnhanced(13, 0.54), 1.99, 0.01);
    // vspatial: hr=.94, dc=39 -> SE=11.89.
    EXPECT_NEAR(speedupEnhanced(39, 0.94), 11.89, 0.05);
}

TEST(Amdahl, OverallSpeedup)
{
    EXPECT_DOUBLE_EQ(amdahlSpeedup(0.0, 5.0), 1.0);
    // Paper Table 11, vgauss @39: FE=.346, SE=4.34 -> 1.36.
    EXPECT_NEAR(amdahlSpeedup(0.346, 4.34), 1.36, 0.005);
    // vspatial @39: FE=.252, SE=11.89 -> 1.30.
    EXPECT_NEAR(amdahlSpeedup(0.252, 11.89), 1.30, 0.005);
}

TEST(Amdahl, MultiUnitComposition)
{
    // Single unit must reduce to the scalar formula.
    EXPECT_DOUBLE_EQ(amdahlSpeedupMulti({{0.2, 2.0}}),
                     amdahlSpeedup(0.2, 2.0));
    // Paper Table 13, vgauss (5,39): FE=.518, SE=3.45 -> 1.58.
    EXPECT_NEAR(amdahlSpeedup(0.518, 3.45), 1.58, 0.005);
    // combinedSe must reproduce the overall multi-unit speedup.
    std::vector<EnhancedUnit> units = {{0.3, 2.0}, {0.1, 5.0}};
    double se = combinedSe(units);
    EXPECT_NEAR(amdahlSpeedup(0.4, se), amdahlSpeedupMulti(units),
                1e-12);
}

TEST(Amdahl, MoreHitsNeverHurt)
{
    for (double hr = 0.0; hr <= 1.0; hr += 0.1) {
        EXPECT_GE(speedupEnhanced(13, hr + 1e-9),
                  speedupEnhanced(13, hr));
    }
}

// --- CpuModel against its oracle, check::referenceCpuRun -----------

/**
 * Require equal statistics and valid-entry counts in every table of
 * @p got and @p want, then one scalar lookup/update pass over
 * @p trace's columns on both: the same hits and the same values.
 */
void
expectSameBanks(const Trace &trace, MemoBank &got, MemoBank &want,
                const std::string &what)
{
    for (Operation op : {Operation::IntMul, Operation::FpMul,
                         Operation::FpDiv, Operation::FpSqrt}) {
        MemoTable *tg = got.table(op);
        MemoTable *tw = want.table(op);
        ASSERT_EQ(tg == nullptr, tw == nullptr) << what;
        if (!tg)
            continue;
        const std::string where =
            what + " " + std::string(operationName(op));
        EXPECT_EQ(tg->validEntries(), tw->validEntries()) << where;
        const TraceStore::ClassColumns &col =
            trace.store().classColumns(instClassOf(op));
        for (size_t i = 0; i < col.a.size(); i++) {
            auto g = tg->lookup(col.a[i], col.b[i]);
            if (g != tw->lookup(col.a[i], col.b[i])) {
                ADD_FAILURE() << where << ": contents diverge at " << i;
                return;
            }
            if (!g) {
                tg->update(col.a[i], col.b[i], col.r[i]);
                tw->update(col.a[i], col.b[i], col.r[i]);
            }
        }
    }
}

TEST(CpuModel, MatchesReferenceLoopOnSpeedupApps)
{
    // Every Tables 11-13 application over three images, under both
    // multiplier and both divider latencies, baseline and with the
    // mul, div and both banks. Each bank carries over from image to
    // image: the second image replays a warm table (probeBlock), and
    // the third a flushed one (keyed again, statistics carried).
    const std::pair<unsigned, unsigned> lats[] = {
        {3, 13}, {3, 39}, {5, 13}, {5, 39}};
    const size_t images[] = {0, 4, 9};
    for (const std::string &app : check::speedupApps()) {
        const MmKernel &kernel = mmKernelByName(app);
        for (const auto &[mul, div] : lats) {
            CpuConfig cfg;
            cfg.lat = LatencyConfig::custom(mul, div);
            CpuModel cpu(cfg);
            for (int kind = 0; kind < 3; kind++) {
                MemoBank got, want;
                for (MemoBank *b : {&got, &want}) {
                    if (kind != 1)
                        b->addTable(Operation::FpMul, MemoConfig{});
                    if (kind != 0)
                        b->addTable(Operation::FpDiv, MemoConfig{});
                }
                for (size_t img : images) {
                    const NamedImage &named = standardImages()[img];
                    auto trace = cachedMmKernelTrace(kernel, named, 48);
                    const std::string what =
                        app + "/" + named.name + " (" +
                        std::to_string(mul) + ", " +
                        std::to_string(div) + ") bank " +
                        std::to_string(kind);
                    if (kind == 0) {
                        auto d = check::simResultDiff(
                            check::referenceCpuRun(cfg, *trace),
                            cpu.run(*trace));
                        EXPECT_FALSE(d) << what << " baseline: " << *d;
                    }
                    if (img == images[2])
                        for (MemoBank *b : {&got, &want})
                            for (Operation op :
                                 {Operation::FpMul, Operation::FpDiv})
                                if (MemoTable *t = b->table(op))
                                    t->flush();
                    auto d = check::simResultDiff(
                        check::referenceCpuRun(cfg, *trace, &want),
                        cpu.run(*trace, &got));
                    EXPECT_FALSE(d) << what << ": " << *d;
                }
                expectSameBanks(
                    *cachedMmKernelTrace(kernel, standardImages()[0], 48),
                    got, want, app);
            }
        }
    }
}

/** A TableHooks observer that keeps every event, per operation. */
struct RecordingHooks : TableHooks
{
    std::map<Operation, std::vector<std::array<uint64_t, 3>>> events;

    void
    onTableEvent(Operation op, TableEventKind kind, uint32_t set,
                 uint64_t stamp) override
    {
        events[op].push_back(
            {static_cast<uint64_t>(kind), set, stamp});
    }
};

TEST(CpuModel, MatchesReferenceLoopWithHooksAndPhases)
{
    // An observed bank replays through probeBlock one table after
    // another; the reference interleaves the tables in trace order.
    // Each table's event sequence and phase rows must still agree.
    // Integrated trivial detection makes trivial operations hits too.
    constexpr Operation ops[] = {Operation::IntMul, Operation::FpMul,
                                 Operation::FpDiv};
    auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                     standardImages()[2], 48);
    MemoConfig integrated;
    integrated.trivialMode = TrivialMode::Integrated;
    MemoBank got = MemoBank::standard(integrated);
    MemoBank want = MemoBank::standard(integrated);
    RecordingHooks hg, hw;
    std::vector<PhaseAccum> pg, pw;
    pg.reserve(std::size(ops));
    pw.reserve(std::size(ops));
    for (Operation op : ops) {
        got.table(op)->setHooks(&hg);
        want.table(op)->setHooks(&hw);
        got.table(op)->setPhaseAccum(&pg.emplace_back(512, true));
        want.table(op)->setPhaseAccum(&pw.emplace_back(512, true));
    }
    CpuConfig cfg;
    auto d = check::simResultDiff(
        check::referenceCpuRun(cfg, *trace, &want),
        CpuModel(cfg).run(*trace, &got));
    EXPECT_FALSE(d) << *d;
    EXPECT_GT(want.table(Operation::FpMul)->stats().trivialHits, 0u);
    for (size_t i = 0; i < std::size(ops); i++) {
        const std::string name(operationName(ops[i]));
        EXPECT_FALSE(hw.events[ops[i]].empty()) << name;
        EXPECT_EQ(hg.events[ops[i]], hw.events[ops[i]]) << name;
        got.table(ops[i])->finalizePhases();
        want.table(ops[i])->finalizePhases();
        const auto &rg = pg[i].rows();
        const auto &rw = pw[i].rows();
        ASSERT_EQ(rg.size(), rw.size()) << name;
        ASSERT_FALSE(rw.empty()) << name;
        for (size_t r = 0; r < rw.size(); r++) {
            EXPECT_EQ(rg[r].start, rw[r].start) << name << " row " << r;
            EXPECT_EQ(rg[r].length, rw[r].length) << name << " row " << r;
            EXPECT_EQ(rg[r].occupancy, rw[r].occupancy)
                << name << " row " << r;
            EXPECT_EQ(rg[r].stats.hits, rw[r].stats.hits)
                << name << " row " << r;
            EXPECT_EQ(rg[r].stats.misses, rw[r].stats.misses)
                << name << " row " << r;
            EXPECT_EQ(rg[r].stats.evictions, rw[r].stats.evictions)
                << name << " row " << r;
            EXPECT_EQ(rg[r].stats.trivialBypassed,
                      rw[r].stats.trivialBypassed)
                << name << " row " << r;
        }
        EXPECT_EQ(pg[i].setOccupancy(), pw[i].setOccupancy()) << name;
        got.table(ops[i])->setHooks(nullptr);
        want.table(ops[i])->setHooks(nullptr);
        got.table(ops[i])->setPhaseAccum(nullptr);
        want.table(ops[i])->setPhaseAccum(nullptr);
    }
}

} // anonymous namespace
} // namespace memo
