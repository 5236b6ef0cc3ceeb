/**
 * @file
 * Differential harness for the batched replay hot loop: replayMemo()
 * (blocked columnar passes + MemoTable::probeBlock) must be bit-exact
 * against replayMemoReference() (the retained scalar oracle) — same
 * statistics, same entry states, same subsequent behaviour — for
 * every table mode, every Khoros kernel trace, odd trace lengths
 * around the block size, and adversarial FP operands — and, with a
 * TableHooks observer attached, the same event stream.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "check/fuzz.hh"
#include "core/bank.hh"
#include "core/hooks.hh"
#include "core/phase.hh"
#include "img/generate.hh"
#include "obs/stats.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

void
expectStatsEq(const MemoStats &a, const MemoStats &b,
              const std::string &what)
{
    EXPECT_EQ(a.lookups, b.lookups) << what << ": lookups";
    EXPECT_EQ(a.hits, b.hits) << what << ": hits";
    EXPECT_EQ(a.trivialHits, b.trivialHits) << what << ": trivialHits";
    EXPECT_EQ(a.misses, b.misses) << what << ": misses";
    EXPECT_EQ(a.insertions, b.insertions) << what << ": insertions";
    EXPECT_EQ(a.evictions, b.evictions) << what << ": evictions";
    EXPECT_EQ(a.trivialBypassed, b.trivialBypassed)
        << what << ": trivialBypassed";
    EXPECT_EQ(a.parityMisses, b.parityMisses)
        << what << ": parityMisses";
}

constexpr Operation bank_ops[] = {
    Operation::IntMul, Operation::FpMul,  Operation::FpDiv,
    Operation::FpSqrt, Operation::FpLog,  Operation::FpSin,
    Operation::FpCos,  Operation::FpExp,
};

/**
 * The scalar per-Instruction replay loop, the oracle for replayMemo():
 * one lookup, and an update on a miss, per memoizable record. Kept
 * deliberately simple; do not optimize it.
 */
void
replayMemoReference(const Trace &trace, MemoBank &bank)
{
    for (const Instruction &inst : trace) {
        auto op = memoOperation(inst.cls);
        if (!op)
            continue;
        MemoTable *table = bank.table(*op);
        if (!table)
            continue;
        if (!table->lookup(inst.a, inst.b))
            table->update(inst.a, inst.b, inst.result);
    }
}

/**
 * Replay @p trace through the batched path and the scalar oracle on
 * identically configured banks and require equal statistics and entry
 * counts; then replay it once more on both (scalar), so a divergence
 * in *stored state* (not just counters) shows up as diverging hit
 * counts on the second pass.
 */
void
expectReplayEquivalent(const Trace &trace, const MemoConfig &cfg,
                       const std::string &what)
{
    MemoBank batched = MemoBank::standard(cfg);
    MemoBank scalar = MemoBank::standard(cfg);
    replayMemo(trace, batched);
    replayMemoReference(trace, scalar);
    for (Operation op : bank_ops) {
        const MemoTable *tb = batched.table(op);
        const MemoTable *ts = scalar.table(op);
        ASSERT_EQ(tb == nullptr, ts == nullptr);
        if (!tb)
            continue;
        expectStatsEq(tb->stats(), ts->stats(),
                      what + " pass1 " +
                          std::string(operationName(op)));
        EXPECT_EQ(tb->validEntries(), ts->validEntries())
            << what << " " << operationName(op) << ": validEntries";
    }
    // Second pass exercises the state the first pass left behind.
    replayMemoReference(trace, batched);
    replayMemoReference(trace, scalar);
    for (Operation op : bank_ops) {
        const MemoTable *tb = batched.table(op);
        if (!tb)
            continue;
        expectStatsEq(tb->stats(), scalar.table(op)->stats(),
                      what + " pass2 " +
                          std::string(operationName(op)));
    }
}

/** The table-mode matrix the differential runs under. */
std::vector<std::pair<std::string, MemoConfig>>
configMatrix()
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

    MemoConfig cache_all = base;
    cache_all.trivialMode = TrivialMode::CacheAll;
    cfgs.emplace_back("cache-all", cache_all);

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

    MemoConfig inf_mant = mant;
    inf_mant.infinite = true;
    cfgs.emplace_back("infinite-mantissa", inf_mant);

    MemoConfig add = base;
    add.hashScheme = HashScheme::PaperXor;
    cfgs.emplace_back("paper-xor", add);
    return cfgs;
}

/** Adversarial double bits: edge values plus heavy pooled reuse. */
uint64_t
edgeDoubleBits(check::FuzzRng &rng, std::vector<uint64_t> &pool)
{
    if (!pool.empty() && rng.chance(2, 5))
        return pool[rng.below(pool.size())];
    uint64_t v;
    switch (rng.below(8)) {
      case 0: { // signed zeros / trivial constants
        static constexpr double k[] = {0.0, -0.0, 1.0, -1.0,
                                       2.0, -2.0, 0.5, 4.0};
        v = fpBits(k[rng.below(8)]);
        break;
      }
      case 1: // NaN with payload (quiet and signalling)
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) |
            (0x7ffULL << 52) | ((rng.next() & ((1ULL << 52) - 1)) | 1);
        break;
      case 2: // infinities
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) |
            (0x7ffULL << 52);
        break;
      case 3: // denormals
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) |
            ((rng.next() & ((1ULL << 52) - 1)) | 1);
        break;
      case 4: { // extreme exponents (mantissa-mode delta limits)
        uint64_t e = rng.chance(1, 2) ? 1 + rng.below(40)
                                      : 2006 + rng.below(40);
        v = (e << 52) | (rng.next() & ((1ULL << 52) - 1));
        break;
      }
      case 5: // small integers (kernel bread and butter)
        v = fpBits(static_cast<double>(rng.below(64)));
        break;
      default: { // mid-range normals
        uint64_t e = 512 + rng.below(1024);
        v = (rng.chance(1, 2) ? uint64_t{1} << 63 : 0) | (e << 52) |
            (rng.next() & ((1ULL << 52) - 1));
        break;
      }
    }
    if (pool.size() < 48)
        pool.push_back(v);
    return v;
}

/**
 * A synthetic trace with exactly @p ops memoizable records (plus
 * interleaved non-memoizable noise), drawn from the edge-value
 * generator.
 */
Trace
syntheticTrace(size_t ops, uint64_t seed)
{
    static constexpr InstClass memo_classes[] = {
        InstClass::IntMul, InstClass::FpMul, InstClass::FpMul,
        InstClass::FpDiv,  InstClass::FpDiv, InstClass::FpSqrt,
        InstClass::FpLog,  InstClass::FpSin, InstClass::FpCos,
        InstClass::FpExp};
    check::FuzzRng rng(seed);
    std::vector<uint64_t> pool_a, pool_b;
    Trace trace;
    for (size_t i = 0; i < ops; i++) {
        // Interleave non-operand noise so the operand columns and the
        // record index diverge, as in real traces.
        if (rng.chance(1, 3)) {
            Instruction noise;
            noise.cls = rng.chance(1, 2) ? InstClass::IntAlu
                                         : InstClass::Branch;
            trace.push(noise);
        }
        Instruction inst;
        inst.cls = memo_classes[rng.below(std::size(memo_classes))];
        auto op = memoOperation(inst.cls);
        if (inst.cls == InstClass::IntMul) {
            inst.a = rng.below(1 << 12);
            inst.b = rng.chance(1, 4) ? inst.a : rng.below(1 << 12);
        } else {
            inst.a = edgeDoubleBits(rng, pool_a);
            inst.b = isUnary(*op)
                         ? 0
                         : edgeDoubleBits(rng, rng.chance(1, 3)
                                                   ? pool_a
                                                   : pool_b);
        }
        inst.result = check::computeResult(*op, inst.a, inst.b);
        trace.push(inst);
    }
    return trace;
}

TEST(ReplayBatched, MatchesReferenceOnAllKernelTraces)
{
    // All Khoros kernels, one representative image, every table mode.
    const auto &named = standardImages().front();
    auto cfgs = configMatrix();
    for (const MmKernel &k : mmKernels()) {
        auto trace = cachedMmKernelTrace(k, named, 48);
        for (const auto &[cname, cfg] : cfgs) {
            expectReplayEquivalent(*trace, cfg,
                                   k.name + "/" + cname);
        }
    }
}

TEST(ReplayBatched, MatchesReferenceAtBlockBoundaries)
{
    const std::array<size_t, 5> lens = {
        0, 1, kReplayBlock - 1, kReplayBlock, kReplayBlock + 1};
    auto cfgs = configMatrix();
    uint64_t seed = 7;
    for (size_t len : lens) {
        Trace trace = syntheticTrace(len, seed++);
        for (const auto &[cname, cfg] : cfgs) {
            expectReplayEquivalent(trace, cfg,
                                   "len" + std::to_string(len) + "/" +
                                       cname);
        }
    }
}

TEST(ReplayBatched, MatchesReferenceOnEdgeOperandStreams)
{
    // Longer adversarial streams: several seeds, two block's worth of
    // NaN/denormal/signed-zero-rich operands.
    auto cfgs = configMatrix();
    for (uint64_t seed = 100; seed < 104; seed++) {
        Trace trace = syntheticTrace(2 * kReplayBlock + 17, seed);
        for (const auto &[cname, cfg] : cfgs) {
            expectReplayEquivalent(trace, cfg,
                                   "seed" + std::to_string(seed) +
                                       "/" + cname);
        }
    }
}

TEST(ReplayBatched, EmptyAndTablelessBanksAreNoOps)
{
    Trace trace = syntheticTrace(64, 3);
    MemoBank empty_batched, empty_scalar; // no tables attached
    replayMemo(trace, empty_batched);
    replayMemoReference(trace, empty_scalar);
    for (Operation op : bank_ops) {
        EXPECT_EQ(empty_batched.table(op), nullptr);
        EXPECT_EQ(empty_scalar.table(op), nullptr);
    }

    Trace none; // empty trace
    MemoBank bank = MemoBank::standard(MemoConfig{});
    replayMemo(none, bank);
    EXPECT_EQ(bank.table(Operation::FpMul)->stats().lookups, 0u);
}

TEST(ReplayBatched, FoldsItsActivityIntoTheRegistry)
{
    // Each replay adds one run, its trace's record count and each
    // table's counter deltas — only this replay's, though the bank's
    // tables accumulate across replays — to the global registry.
    Trace trace = syntheticTrace(2 * kReplayBlock + 5, 11);
    MemoConfig cfg;
    cfg.entries = 64;
    cfg.ways = 4;
    MemoBank bank = MemoBank::standard(cfg);
    replayMemo(trace, bank);
    std::map<Operation, MemoStats> before;
    for (Operation op : bank_ops)
        if (const MemoTable *t = bank.table(op))
            before[op] = t->stats();

    auto &reg = obs::StatsRegistry::global();
    reg.reset();
    replayMemo(trace, bank);
    obs::Snapshot snap = reg.snapshot();
    reg.reset();

    EXPECT_EQ(snap.counter("analysis.replay.runs"), 1u);
    EXPECT_EQ(snap.counter("analysis.replay.instructions"),
              trace.size());
    for (const auto &[op, b] : before) {
        const MemoStats &a = bank.table(op)->stats();
        std::string prefix =
            "core.table." + std::string(operationName(op)) + ".";
        EXPECT_EQ(snap.counter(prefix + "lookups"), a.lookups - b.lookups)
            << prefix;
        EXPECT_EQ(snap.counter(prefix + "hits"), a.hits - b.hits)
            << prefix;
        EXPECT_EQ(snap.counter(prefix + "misses"), a.misses - b.misses)
            << prefix;
        EXPECT_EQ(snap.counter(prefix + "insertions"),
                  a.insertions - b.insertions)
            << prefix;
        EXPECT_EQ(snap.counter(prefix + "evictions"),
                  a.evictions - b.evictions)
            << prefix;
        EXPECT_EQ(snap.counter(prefix + "trivialHits"),
                  a.trivialHits - b.trivialHits)
            << prefix;
    }
    // The second replay did table work, so the deltas above are not
    // all vacuously zero.
    EXPECT_GT(bank.table(Operation::FpMul)->stats().lookups,
              before.at(Operation::FpMul).lookups);
}

/** A TableHooks observer that keeps every event, in order. */
struct RecordingHooks : TableHooks
{
    struct Event
    {
        Operation op;
        TableEventKind kind;
        uint32_t set;
        uint64_t stamp;
        bool operator==(const Event &) const = default;
    };
    std::vector<Event> events;

    void
    onTableEvent(Operation op, TableEventKind kind, uint32_t set,
                 uint64_t stamp) override
    {
        events.push_back({op, kind, set, stamp});
    }

    /** The events one table reported, in order. */
    std::vector<Event>
    of(Operation op) const
    {
        std::vector<Event> out;
        for (const Event &e : events)
            if (e.op == op)
                out.push_back(e);
        return out;
    }
};

TEST(ReplayBatched, HookedEventStreamMatchesScalar)
{
    // probeBlock() keeps its batched loop with an observer attached:
    // the event stream must still be the one per-access lookup/update
    // emits, with and without a phase accumulator splitting blocks.
    const std::array<size_t, 4> lens = {0, 1, kReplayBlock - 1,
                                        kReplayBlock + 1};
    auto cfgs = configMatrix();
    uint64_t seed = 211;
    for (size_t len : lens) {
        Trace trace = syntheticTrace(len, seed++);
        for (const auto &[cname, cfg] : cfgs) {
            for (bool phased : {false, true}) {
                MemoBank batched = MemoBank::standard(cfg);
                MemoBank scalar = MemoBank::standard(cfg);
                RecordingHooks hb, hs;
                std::vector<PhaseAccum> pb, ps;
                pb.reserve(std::size(bank_ops));
                ps.reserve(std::size(bank_ops));
                for (Operation op : bank_ops) {
                    if (!batched.table(op))
                        continue;
                    batched.table(op)->setHooks(&hb);
                    scalar.table(op)->setHooks(&hs);
                    if (phased) {
                        batched.table(op)->setPhaseAccum(&pb.emplace_back(7));
                        scalar.table(op)->setPhaseAccum(&ps.emplace_back(7));
                    }
                }
                replayMemo(trace, batched);
                replayMemoReference(trace, scalar);

                std::string what = "len" + std::to_string(len) + "/" +
                                   cname + (phased ? "/phased" : "");
                EXPECT_EQ(hb.events.size(), hs.events.size()) << what;
                if (len > 1) {
                    EXPECT_FALSE(hb.events.empty()) << what;
                }
                size_t accum = 0;
                for (Operation op : bank_ops) {
                    MemoTable *tb = batched.table(op);
                    if (!tb)
                        continue;
                    EXPECT_TRUE(hb.of(op) == hs.of(op))
                        << what << " " << operationName(op);
                    if (phased) {
                        tb->finalizePhases();
                        scalar.table(op)->finalizePhases();
                        const auto &rb = pb[accum].rows();
                        const auto &rs = ps[accum].rows();
                        ASSERT_EQ(rb.size(), rs.size()) << what;
                        for (size_t w = 0; w < rb.size(); w++) {
                            EXPECT_EQ(rb[w].start, rs[w].start) << what;
                            EXPECT_EQ(rb[w].length, rs[w].length) << what;
                            EXPECT_EQ(rb[w].occupancy, rs[w].occupancy)
                                << what;
                            expectStatsEq(rb[w].stats, rs[w].stats,
                                          what + " window " +
                                              std::to_string(w));
                        }
                        accum++;
                    }
                    tb->setPhaseAccum(nullptr);
                    scalar.table(op)->setPhaseAccum(nullptr);
                }
            }
        }
    }
}

} // anonymous namespace
} // namespace memo
