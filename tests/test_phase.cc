/**
 * @file
 * memo-scope phase-telemetry tests: the in-table window collection
 * (scalar lookup path and batched probeBlock path) is differentially
 * pinned against ScalarPhaseReference, an accumulator that
 * shares no boundary code with the table; a mutation self-test
 * injects an off-by-one window boundary (setPhaseBoundaryFault) and
 * requires the differential to catch it. The TimeSeries/Histogram
 * primitives are checked for merge-order invariance (the determinism
 * contract of obs::StatsRegistry), the windowed reuse profile is
 * reconciled against the whole-trace ReuseProfile, and the rendered
 * artifacts (phases.json, Chrome-trace counter events, registry
 * publication) are checked byte-deterministic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/reuse.hh"
#include "arith/fp.hh"
#include "check/fuzz.hh"
#include "core/bank.hh"
#include "core/phase.hh"
#include "img/generate.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

/**
 * Independent scalar reference accumulator for the differential tests.
 *
 * Tracks windows from *outside* the table: step() is called after
 * each completed scalar access (lookup plus any update) and closes a
 * row whenever the table's stamp reaches the next boundary, using
 * only the public stats()/validEntries() surface. It shares no
 * boundary code with the in-table path, so the injected off-by-one
 * of setPhaseBoundaryFault() (core/phase.hh) shifts the in-table
 * rows but not these — the phase mutation self-test requires the
 * difference to be caught.
 *
 * It polls cumulative counters via stats() and diffs them itself on
 * purpose. Subscribing through TableHooks, as memo-API-001 asks of
 * the observability layer, would make the oracle depend on the very
 * event plumbing it is meant to cross-check.
 */
class ScalarPhaseReference
{
  public:
    /** @p table is borrowed and re-based at its current stamp. */
    ScalarPhaseReference(const MemoTable &table, uint64_t window)
        : table_(table), window_(window ? window : 1),
          flushedThrough_(table.accessStamp()), last_(table.stats())
    {
    }

    /** Notify that one access (lookup + any update) completed. */
    void
    step()
    {
        // One access advances the stamp by exactly one, so equality
        // (not >=) suffices and each step closes at most one window.
        if (table_.accessStamp() == flushedThrough_ + window_)
            close();
    }

    /** Close the trailing partial window, if any. */
    void finalize() { close(); }

    /** Closed windows, oldest first. */
    const std::vector<PhaseWindow> &rows() const { return rows_; }

  private:
    void
    close()
    {
        uint64_t stamp = table_.accessStamp();
        uint64_t len = stamp - flushedThrough_;
        if (len == 0)
            return;
        PhaseWindow row;
        row.start = flushedThrough_;
        row.length = len;
        row.stats = statsDelta(table_.stats(), last_);
        row.occupancy = table_.validEntries();
        rows_.push_back(row);
        last_ = table_.stats();
        flushedThrough_ = stamp;
    }

    const MemoTable &table_;
    uint64_t window_;
    uint64_t flushedThrough_;
    MemoStats last_;
    std::vector<PhaseWindow> rows_;
};

/** Operand mix with heavy reuse and trivial constants. */
uint64_t
phaseOperand(check::FuzzRng &rng, std::vector<uint64_t> &pool)
{
    if (!pool.empty() && rng.chance(1, 2))
        return pool[rng.below(pool.size())];
    uint64_t v;
    if (rng.chance(1, 4)) {
        static constexpr double k[] = {0.0, 1.0, -1.0, 2.0};
        v = fpBits(k[rng.below(4)]);
    } else {
        v = fpBits(1.0 + static_cast<double>(rng.below(1 << 10)) / 7.0);
    }
    if (pool.size() < 40)
        pool.push_back(v);
    return v;
}

/** A trace of @p ops memoizable records plus interleaved noise. */
Trace
syntheticTrace(size_t ops, uint64_t seed)
{
    static constexpr InstClass classes[] = {
        InstClass::IntMul, InstClass::FpMul, InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpDiv, InstClass::FpSqrt,
        InstClass::FpLog,  InstClass::FpSin, InstClass::FpCos,
        InstClass::FpExp};
    check::FuzzRng rng(seed);
    std::vector<uint64_t> pool;
    Trace trace;
    for (size_t i = 0; i < ops; i++) {
        if (rng.chance(1, 4)) {
            Instruction noise;
            noise.cls = InstClass::IntAlu;
            trace.push(noise);
        }
        Instruction inst;
        inst.cls = classes[rng.below(std::size(classes))];
        auto op = memoOperation(inst.cls);
        if (inst.cls == InstClass::IntMul) {
            inst.a = rng.below(64);
            inst.b = rng.chance(1, 4) ? 1 : rng.below(64);
        } else {
            inst.a = phaseOperand(rng, pool);
            inst.b = isUnary(*op) ? 0 : phaseOperand(rng, pool);
        }
        inst.result = check::computeResult(*op, inst.a, inst.b);
        trace.push(inst);
    }
    return trace;
}

/** The table modes the phase differential runs under. */
std::vector<std::pair<std::string, MemoConfig>>
phaseConfigMatrix()
{
    std::vector<std::pair<std::string, MemoConfig>> cfgs;
    MemoConfig base; // 32x4 LRU FullValue NonTrivialOnly
    cfgs.emplace_back("default", base);

    MemoConfig one = base;
    one.entries = 1;
    one.ways = 1;
    cfgs.emplace_back("1x1", one);

    MemoConfig mant = base;
    mant.tagMode = TagMode::MantissaOnly;
    cfgs.emplace_back("mantissa", mant);

    MemoConfig integrated = base;
    integrated.trivialMode = TrivialMode::Integrated;
    integrated.extendedTrivial = true;
    cfgs.emplace_back("integrated-ext", integrated);

    MemoConfig rnd = base;
    rnd.replacement = Replacement::Random;
    cfgs.emplace_back("random-repl", rnd);

    MemoConfig fifo = base;
    fifo.replacement = Replacement::Fifo;
    fifo.parityProtected = true;
    cfgs.emplace_back("fifo-parity", fifo);

    MemoConfig inf = base;
    inf.infinite = true;
    cfgs.emplace_back("infinite", inf);
    return cfgs;
}

bool
sameWindow(const PhaseWindow &a, const PhaseWindow &b)
{
    const MemoStats &x = a.stats, &y = b.stats;
    return a.start == b.start && a.length == b.length &&
           a.occupancy == b.occupancy && x.lookups == y.lookups &&
           x.hits == y.hits && x.trivialHits == y.trivialHits &&
           x.misses == y.misses && x.insertions == y.insertions &&
           x.evictions == y.evictions &&
           x.trivialBypassed == y.trivialBypassed &&
           x.parityMisses == y.parityMisses;
}

bool
rowsIdentical(const std::vector<PhaseWindow> &a,
              const std::vector<PhaseWindow> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++)
        if (!sameWindow(a[i], b[i]))
            return false;
    return true;
}

void
expectRowsEq(const std::vector<PhaseWindow> &got,
             const std::vector<PhaseWindow> &want,
             const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what << ": row count";
    for (size_t i = 0; i < got.size(); i++) {
        EXPECT_TRUE(sameWindow(got[i], want[i]))
            << what << ": window " << i << " (start " << got[i].start
            << "/" << want[i].start << ", len " << got[i].length << "/"
            << want[i].length << ", lookups " << got[i].stats.lookups
            << "/" << want[i].stats.lookups << ", hits "
            << got[i].stats.hits << "/" << want[i].stats.hits << ")";
    }
}

/** Batched replay with a PhaseScope attached; harvested profiles. */
std::vector<obs::PhaseProfile>
batchedPhases(const Trace &trace, const MemoConfig &cfg,
              uint64_t window, bool per_set = false)
{
    MemoBank bank = MemoBank::standard(cfg);
    obs::PhaseScope scope(bank, window, per_set);
    replayMemo(trace, bank);
    scope.finalize();
    return scope.profiles();
}

/**
 * Scalar oracle: a fresh table driven one instruction at a time, with
 * the boundary bookkeeping done entirely outside the table by
 * ScalarPhaseReference.
 */
std::vector<PhaseWindow>
referenceRows(const Trace &trace, const MemoConfig &cfg, Operation op,
              uint64_t window)
{
    MemoTable table(op, cfg);
    ScalarPhaseReference ref(table, window);
    for (const Instruction &inst : trace) {
        auto o = memoOperation(inst.cls);
        if (!o || *o != op)
            continue;
        if (!table.lookup(inst.a, inst.b))
            table.update(inst.a, inst.b, inst.result);
        ref.step();
    }
    ref.finalize();
    return ref.rows();
}

TEST(PhaseSeries, TimeSeriesAddMergeSerialize)
{
    obs::TimeSeries s;
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.total(), 0u);
    s.add(2, 12);
    s.add(0, 5);
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.values()[0], 5u);
    EXPECT_EQ(s.values()[1], 0u);
    EXPECT_EQ(s.values()[2], 12u);
    EXPECT_EQ(s.total(), 17u);
    EXPECT_EQ(s.serialize(), "|5|0|12| n=3 sum=17");

    obs::TimeSeries t;
    t.add(0, 1);
    t.add(3, 4); // longer: merged length must grow
    s.merge(t);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s.values()[0], 6u);
    EXPECT_EQ(s.values()[3], 4u);
    EXPECT_EQ(s.total(), 22u);
}

TEST(PhaseSeries, TimeSeriesMergeOrderInvariant)
{
    obs::TimeSeries a, b, c;
    a.add(0, 3);
    a.add(5, 7);
    b.add(2, 11);
    c.add(7, 1);
    c.add(1, 9);

    obs::TimeSeries abc;
    abc.merge(a);
    abc.merge(b);
    abc.merge(c);
    obs::TimeSeries cba;
    cba.merge(c);
    cba.merge(b);
    cba.merge(a);
    EXPECT_EQ(abc.serialize(), cba.serialize());

    // Associativity: (a+b)+c == a+(b+c).
    obs::TimeSeries ab = a;
    ab.merge(b);
    ab.merge(c);
    obs::TimeSeries bc = b;
    bc.merge(c);
    obs::TimeSeries a_bc = a;
    a_bc.merge(bc);
    EXPECT_EQ(ab.serialize(), a_bc.serialize());
}

TEST(PhaseSeries, HistogramMergeOrderInvariant)
{
    obs::Histogram a, b, c;
    for (uint64_t v : {0u, 1u, 3u, 200u})
        a.record(v);
    for (uint64_t v : {2u, 2u, 64u})
        b.record(v);
    c.record(129u);

    obs::Histogram abc;
    abc.merge(a);
    abc.merge(b);
    abc.merge(c);
    obs::Histogram cab;
    cab.merge(c);
    cab.merge(a);
    cab.merge(b);
    EXPECT_EQ(abc.serialize(), cab.serialize());
    EXPECT_EQ(abc.total(), 8u);
}

TEST(PhaseDifferential, BatchedMatchesScalarReference)
{
    const std::vector<uint64_t> windows = {
        1, 937, kReplayBlock, kReplayBlock + 1, uint64_t{1} << 40};
    auto cfgs = phaseConfigMatrix();

    std::vector<std::pair<std::string, Trace>> traces;
    traces.emplace_back("synthetic",
                        syntheticTrace(2 * kReplayBlock + 17, 9));
    {
        // One real kernel trace: block-partitioned presentation.
        auto t = cachedMmKernelTrace(mmKernels().front(),
                                     standardImages().front(), 48);
        Trace copy;
        copy.reserve(t->size());
        for (const Instruction &inst : *t)
            copy.push(inst);
        traces.emplace_back("kernel", std::move(copy));
    }

    for (const auto &[tname, trace] : traces) {
        for (uint64_t w : windows) {
            for (const auto &[cname, cfg] : cfgs) {
                auto profiles = batchedPhases(trace, cfg, w);
                for (const obs::PhaseProfile &p : profiles) {
                    expectRowsEq(
                        p.rows, referenceRows(trace, cfg, p.op, w),
                        tname + "/" + cname + "/w" +
                            std::to_string(w) + "/" +
                            std::string(operationName(p.op)));
                }
            }
        }
    }
}

TEST(PhaseDifferential, ScalarInTablePathMatchesReference)
{
    Trace trace = syntheticTrace(2 * kReplayBlock + 17, 21);
    auto cfgs = phaseConfigMatrix();
    for (uint64_t w : {uint64_t{1}, uint64_t{937}, uint64_t{1} << 40}) {
        for (const auto &[cname, cfg] : cfgs) {
            for (Operation op : {Operation::IntMul, Operation::FpMul,
                                 Operation::FpDiv}) {
                MemoTable table(op, cfg);
                PhaseAccum accum(w);
                table.setPhaseAccum(&accum);
                MemoTable oracle(op, cfg);
                ScalarPhaseReference ref(oracle, w);
                for (const Instruction &inst : trace) {
                    auto o = memoOperation(inst.cls);
                    if (!o || *o != op)
                        continue;
                    if (!table.lookup(inst.a, inst.b))
                        table.update(inst.a, inst.b, inst.result);
                    if (!oracle.lookup(inst.a, inst.b))
                        oracle.update(inst.a, inst.b, inst.result);
                    ref.step();
                }
                table.finalizePhases();
                ref.finalize();
                expectRowsEq(accum.rows(), ref.rows(),
                             "scalar/" + cname + "/w" +
                                 std::to_string(w) + "/" +
                                 std::string(operationName(op)));
                table.setPhaseAccum(nullptr);
            }
        }
    }
}

TEST(PhaseDifferential, PerSetOccupancySumsToTotal)
{
    Trace trace = syntheticTrace(3 * 937, 33);
    MemoConfig cfg; // 32x4: 8 sets, 4 ways
    auto profiles = batchedPhases(trace, cfg, 500, /*per_set=*/true);
    bool any = false;
    for (const obs::PhaseProfile &p : profiles) {
        ASSERT_EQ(p.setOccupancy.size(), p.rows.size())
            << operationName(p.op);
        for (size_t i = 0; i < p.rows.size(); i++) {
            ASSERT_EQ(p.setOccupancy[i].size(), size_t{8});
            uint32_t sum = 0;
            for (uint32_t occ : p.setOccupancy[i]) {
                EXPECT_LE(occ, 4u);
                sum += occ;
            }
            EXPECT_EQ(sum, p.rows[i].occupancy)
                << operationName(p.op) << " window " << i;
            any = true;
        }
    }
    EXPECT_TRUE(any);
}

TEST(PhaseDifferential, MutationSelfTestCatchesBoundaryFault)
{
    // An injected one-late window boundary in the in-table collection
    // must be caught by the differential against the out-of-table
    // reference: if this passes while the fault is active, the oracle
    // is vacuous.
    Trace trace = syntheticTrace(3000, 55);
    MemoConfig cfg;
    constexpr uint64_t window = 100;

    setPhaseBoundaryFault(true);
    auto faulted = batchedPhases(trace, cfg, window);
    setPhaseBoundaryFault(false);

    bool caught = false;
    for (const obs::PhaseProfile &p : faulted) {
        if (!rowsIdentical(p.rows,
                           referenceRows(trace, cfg, p.op, window)))
            caught = true;
    }
    EXPECT_TRUE(caught)
        << "differential failed to detect the injected boundary fault";

    // With the fault cleared the same measurement must agree again.
    auto clean = batchedPhases(trace, cfg, window);
    for (const obs::PhaseProfile &p : clean) {
        EXPECT_TRUE(rowsIdentical(
            p.rows, referenceRows(trace, cfg, p.op, window)))
            << "clean run diverges for " << operationName(p.op);
    }
}

TEST(PhaseDifferential, AttachRebasesAtCurrentStamp)
{
    MemoConfig cfg;
    MemoTable table(Operation::IntMul, cfg);
    for (uint64_t i = 0; i < 10; i++) {
        if (!table.lookup(i + 2, i + 3))
            table.update(i + 2, i + 3, (i + 2) * (i + 3));
    }
    PhaseAccum accum(5);
    table.setPhaseAccum(&accum); // re-bases at stamp 10
    for (uint64_t i = 0; i < 12; i++) {
        if (!table.lookup(i + 20, i + 21))
            table.update(i + 20, i + 21, (i + 20) * (i + 21));
    }
    table.finalizePhases();
    table.setPhaseAccum(nullptr);
    ASSERT_EQ(accum.rows().size(), 3u);
    EXPECT_EQ(accum.rows()[0].start, 10u);
    EXPECT_EQ(accum.rows()[0].length, 5u);
    EXPECT_EQ(accum.rows()[2].start, 20u);
    EXPECT_EQ(accum.rows()[2].length, 2u); // trailing partial
    // The pre-attach accesses are not in any window.
    uint64_t lookups = 0;
    for (const PhaseWindow &w : accum.rows())
        lookups += w.stats.lookups + w.stats.trivialBypassed;
    EXPECT_EQ(lookups, 12u);
}

TEST(PhaseReuse, WindowedReuseMatchesWholeProfile)
{
    Trace trace = syntheticTrace(6000, 77);
    for (Operation op :
         {Operation::IntMul, Operation::FpMul, Operation::FpDiv}) {
        ReuseProfile prof = reuseProfile(trace, op, 8192);
        auto wins = windowedReuse(trace, op, 937, 32);
        uint64_t accesses = 0, trivial = 0, cold = 0, short_r = 0,
                 long_r = 0;
        for (const ReuseWindow &w : wins) {
            accesses += w.accesses;
            trivial += w.trivial;
            cold += w.cold;
            short_r += w.shortReuse;
            long_r += w.longReuse;
        }
        EXPECT_EQ(cold, prof.coldMisses()) << operationName(op);
        EXPECT_EQ(cold + short_r + long_r, prof.accesses())
            << operationName(op);
        EXPECT_EQ(accesses - trivial, prof.accesses())
            << operationName(op);
        // shortReuse (distance <= 32) is exactly the hit count of a
        // fully associative 32-entry LRU table: histogram()[d] counts
        // distance d+1.
        uint64_t hits32 = 0;
        for (size_t d = 0; d < 32; d++)
            hits32 += prof.histogram()[d];
        EXPECT_EQ(short_r, hits32) << operationName(op);
        // Every window is full-length except possibly the last.
        for (size_t i = 0; i + 1 < wins.size(); i++)
            EXPECT_EQ(wins[i].accesses, 937u);
    }
}

TEST(PhaseReuse, WindowsAlignWithTablePhases)
{
    // The analysis-layer reuse windows and the in-table phase windows
    // slice the same presented stream: counts must agree per window.
    Trace trace = syntheticTrace(5000, 91);
    MemoConfig cfg;
    constexpr uint64_t window = 733;
    auto profiles = batchedPhases(trace, cfg, window);
    for (const obs::PhaseProfile &p : profiles) {
        auto wins = windowedReuse(trace, p.op, window, 32);
        ASSERT_EQ(wins.size(), p.rows.size()) << operationName(p.op);
        for (size_t i = 0; i < wins.size(); i++) {
            EXPECT_EQ(wins[i].accesses, p.rows[i].stats.lookups +
                                            p.rows[i].stats
                                                .trivialBypassed)
                << operationName(p.op) << " window " << i;
            EXPECT_EQ(wins[i].trivial,
                      p.rows[i].stats.trivialBypassed)
                << operationName(p.op) << " window " << i;
        }
    }
}

TEST(PhaseRender, PhasesJsonDeterministicAndVersioned)
{
    Trace trace = syntheticTrace(3000, 13);
    MemoConfig cfg;
    auto a = batchedPhases(trace, cfg, 500, true);
    auto b = batchedPhases(trace, cfg, 500, true);
    std::string ja = obs::renderPhasesJson(a, "unit");
    EXPECT_EQ(ja, obs::renderPhasesJson(b, "unit"));
    EXPECT_NE(ja.find("\"memoPhasesVersion\": 1"), std::string::npos);
    EXPECT_NE(ja.find("\"setOccupancy\""), std::string::npos);
    EXPECT_NE(ja.find("\"conflictMisses\""), std::string::npos);

    // Counter-event export: one "ph":"C" event per window, identical
    // across renders.
    size_t rows = 0;
    for (const obs::PhaseProfile &p : a)
        rows += p.rows.size();
    std::ostringstream ea, eb;
    bool first_a = true, first_b = true;
    obs::appendCounterEventsJson(ea, first_a, a);
    obs::appendCounterEventsJson(eb, first_b, b);
    EXPECT_EQ(ea.str(), eb.str());
    size_t events = 0;
    for (size_t at = ea.str().find("\"ph\": \"C\"");
         at != std::string::npos;
         at = ea.str().find("\"ph\": \"C\"", at + 1))
        events++;
    EXPECT_EQ(events, rows);
}

TEST(PhaseRegistry, PublishIsMergeOrderInvariant)
{
    Trace ta = syntheticTrace(2000, 3);
    Trace tb = syntheticTrace(2500, 4);
    MemoConfig cfg;
    auto pa = batchedPhases(ta, cfg, 400);
    auto pb = batchedPhases(tb, cfg, 400);

    obs::StatsRegistry r1, r2;
    obs::publishPhases(r1, pa);
    obs::publishPhases(r1, pb);
    obs::publishPhases(r2, pb);
    obs::publishPhases(r2, pa);
    obs::Snapshot s1 = r1.snapshot();
    EXPECT_EQ(s1.serialize(), r2.snapshot().serialize());

    // The published names and exact totals are part of the contract.
    ASSERT_TRUE(s1.series.count("phase.fp div.lookups"));
    uint64_t lookups = 0;
    for (const auto &profiles : {pa, pb})
        for (const obs::PhaseProfile &p : profiles)
            if (p.op == Operation::FpDiv)
                for (const PhaseWindow &w : p.rows)
                    lookups += w.stats.lookups;
    EXPECT_EQ(s1.series.at("phase.fp div.lookups").total(), lookups);
    EXPECT_TRUE(s1.histograms.count("phase.fp div.windowHits"));
}

} // anonymous namespace
} // namespace memo
