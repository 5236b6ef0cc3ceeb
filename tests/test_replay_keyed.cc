/**
 * @file
 * Differential tests for keyed replay: replayMemo() replays a table
 * that MemoTable::keyedReplayable() admits over the store's shared
 * key stream (MemoTable::replayKeyed), and must leave it exactly as
 * MemoTable::probeBlock over the class columns does — the same
 * statistics, and stored state that answers a second scalar
 * lookup/update pass with the same hits and the same values. Tables
 * it does not admit must take probeBlock and still match. The key
 * stream belongs to one store's contents and is built once, even
 * under concurrent first use.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hh"
#include "arith/fp.hh"
#include "arith/hash.hh"
#include "check/golden.hh"
#include "core/bank.hh"
#include "core/hooks.hh"
#include "core/phase.hh"
#include "exec/thread_pool.hh"
#include "img/generate.hh"
#include "trace/chunk_codec.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

constexpr InstClass keyed_classes[] = {InstClass::IntMul, InstClass::FpMul,
                                       InstClass::FpDiv};

/**
 * The oracle: probeBlock over every class column that has a table in
 * @p bank, in replayMemo's kReplayBlock blocks.
 */
void
probeColumns(const Trace &trace, MemoBank &bank)
{
    const TraceStore &store = trace.store();
    for (unsigned c = 0; c < numInstClasses; c++) {
        const auto cls = static_cast<InstClass>(c);
        auto op = memoOperation(cls);
        MemoTable *t = op ? bank.table(*op) : nullptr;
        if (!t)
            continue;
        const TraceStore::ClassColumns &col = store.classColumns(cls);
        for (size_t base = 0; base < col.a.size(); base += kReplayBlock)
            t->probeBlock(col.a.data() + base, col.b.data() + base,
                          col.r.data() + base,
                          std::min(col.a.size() - base, kReplayBlock));
    }
}

bool
sameStats(const MemoStats &a, const MemoStats &b)
{
    return a.lookups == b.lookups && a.hits == b.hits &&
           a.trivialHits == b.trivialHits && a.misses == b.misses &&
           a.insertions == b.insertions && a.evictions == b.evictions &&
           a.trivialBypassed == b.trivialBypassed &&
           a.parityMisses == b.parityMisses;
}

/**
 * Require equal statistics and valid-entry counts in @p got and
 * @p want, then run one scalar lookup/update pass over @p trace's
 * columns on both: every lookup must return the same value (or miss
 * on both), and the statistics must still agree afterwards.
 */
void
expectSameTables(const Trace &trace, MemoBank &got, MemoBank &want,
                 const std::string &what)
{
    for (InstClass cls : keyed_classes) {
        Operation op = *memoOperation(cls);
        MemoTable *tg = got.table(op);
        MemoTable *tw = want.table(op);
        ASSERT_EQ(tg == nullptr, tw == nullptr) << what;
        if (!tg)
            continue;
        const std::string where =
            what + " " + std::string(operationName(op));
        EXPECT_TRUE(sameStats(tg->stats(), tw->stats()))
            << where << ": lookups " << tg->stats().lookups << " vs "
            << tw->stats().lookups << ", hits " << tg->stats().hits
            << " vs " << tw->stats().hits << ", evictions "
            << tg->stats().evictions << " vs " << tw->stats().evictions;
        EXPECT_EQ(tg->validEntries(), tw->validEntries()) << where;

        const TraceStore::ClassColumns &col =
            trace.store().classColumns(cls);
        for (size_t i = 0; i < col.a.size(); i++) {
            auto g = tg->lookup(col.a[i], col.b[i]);
            auto w = tw->lookup(col.a[i], col.b[i]);
            if (g != w) {
                ADD_FAILURE() << where << ": second pass diverges at "
                              << "access " << i;
                return;
            }
            if (!g) {
                tg->update(col.a[i], col.b[i], col.r[i]);
                tw->update(col.a[i], col.b[i], col.r[i]);
            }
        }
        EXPECT_TRUE(sameStats(tg->stats(), tw->stats()))
            << where << ": after the second pass";
    }
}

/** A table geometry and bank shape keyed replay must admit. */
struct KeyedCase
{
    std::string name;
    MemoConfig cfg;
    bool intMulOnly = false;

    MemoBank
    bank() const
    {
        if (!intMulOnly)
            return MemoBank::standard(cfg);
        MemoBank b;
        b.addTable(Operation::IntMul, cfg);
        return b;
    }
};

/** Every Figure 3 and Figure 4 geometry, plus the corner shapes. */
std::vector<KeyedCase>
keyedCases()
{
    std::vector<KeyedCase> cases;
    for (const MemoConfig &c : check::fig3Configs())
        cases.push_back({"fig3/" + std::to_string(c.entries), c});
    for (const MemoConfig &c : check::fig4Configs())
        cases.push_back({"fig4/" + std::to_string(c.ways) + "way", c});
    MemoConfig base;
    MemoConfig one = base;
    one.entries = 1;
    one.ways = 1;
    cases.push_back({"1x1", one});
    MemoConfig two = base;
    two.entries = 64;
    two.ways = 2;
    cases.push_back({"64x2", two});
    MemoConfig eight = base;
    eight.entries = 256;
    eight.ways = 8;
    cases.push_back({"256x8", eight});
    MemoConfig fifo = base;
    fifo.replacement = Replacement::Fifo;
    cases.push_back({"fifo", fifo});
    MemoConfig fifo8 = eight;
    fifo8.replacement = Replacement::Fifo;
    cases.push_back({"256x8-fifo", fifo8});
    MemoConfig xor_hash = base;
    xor_hash.hashScheme = HashScheme::PaperXor;
    cases.push_back({"paper-xor", xor_hash});
    MemoConfig direct = base;
    direct.entries = 8192;
    direct.ways = 1;
    cases.push_back({"8192x1", direct});
    cases.push_back({"intmul-only", base, true});
    return cases;
}

/** The shared cached trace of @p kernel over standard image @p img. */
std::shared_ptr<const Trace>
kernelTrace(const std::string &kernel, size_t img)
{
    return cachedMmKernelTrace(mmKernelByName(kernel),
                               standardImages()[img], 48);
}

TEST(ReplayKeyed, MatchesProbeBlockOnSweepKernels)
{
    const std::vector<KeyedCase> cases = keyedCases();
    for (const std::string &k : sweepKernelNames()) {
        for (size_t img : {size_t{0}, size_t{3}}) {
            auto trace = kernelTrace(k, img);
            for (const KeyedCase &c : cases) {
                const std::string what = k + "/" +
                                         standardImages()[img].name +
                                         "/" + c.name;
                MemoBank keyed = c.bank();
                MemoBank oracle = c.bank();
                for (InstClass cls : keyed_classes) {
                    if (MemoTable *t = keyed.table(*memoOperation(cls))) {
                        EXPECT_TRUE(t->keyedReplayable(1)) << what;
                    }
                }
                replayMemo(*trace, keyed);
                probeColumns(*trace, oracle);
                expectSameTables(*trace, keyed, oracle, what);
            }
            for (InstClass cls : keyed_classes)
                EXPECT_EQ(trace->store().hasAccessKeys(cls),
                          !trace->store().classColumns(cls).a.empty())
                    << k;
        }
    }
}

TEST(ReplayKeyed, KeyedReplayAccumulatesLikeProbeBlock)
{
    // measureMmKernel's pattern: one bank, flushed between inputs, so
    // the clock and the statistics carry over from call to call.
    MemoBank keyed = MemoBank::standard(MemoConfig{});
    MemoBank oracle = MemoBank::standard(MemoConfig{});
    for (size_t img = 0; img < 4; img++) {
        auto trace = kernelTrace("venhance", img);
        for (MemoBank *b : {&keyed, &oracle})
            for (InstClass cls : keyed_classes)
                b->table(*memoOperation(cls))->flush();
        replayMemo(*trace, keyed);
        probeColumns(*trace, oracle);
    }
    expectSameTables(*kernelTrace("venhance", 0), keyed, oracle,
                     "flushed");
}

/** A TableHooks observer that only counts. */
struct CountingHooks : TableHooks
{
    uint64_t events = 0;
    void
    onTableEvent(Operation, TableEventKind, uint32_t, uint64_t) override
    {
        events++;
    }
};

TEST(ReplayKeyed, IneligibleTablesTakeProbeBlock)
{
    auto cached = kernelTrace("vcost", 0);
    MemoConfig base;
    std::vector<std::pair<std::string, MemoConfig>> cfgs;
    MemoConfig c = base;
    c.tagMode = TagMode::MantissaOnly;
    cfgs.emplace_back("mantissa", c);
    c = base;
    c.trivialMode = TrivialMode::Integrated;
    cfgs.emplace_back("integrated", c);
    c = base;
    c.trivialMode = TrivialMode::CacheAll;
    cfgs.emplace_back("cache-all", c);
    c = base;
    c.extendedTrivial = true;
    cfgs.emplace_back("extended-trivial", c);
    c = base;
    c.replacement = Replacement::Random;
    cfgs.emplace_back("random", c);
    c = base;
    c.parityProtected = true;
    cfgs.emplace_back("parity", c);
    c = base;
    c.infinite = true;
    cfgs.emplace_back("infinite", c);
    c = base;
    c.entries = 16;
    c.ways = 16;
    cfgs.emplace_back("16-way", c);

    for (const auto &[name, cfg] : cfgs) {
        Trace trace = *cached; // a copy starts without key streams
        MemoBank keyed = MemoBank::standard(cfg);
        MemoBank oracle = MemoBank::standard(cfg);
        for (Operation op : {Operation::FpMul, Operation::FpDiv})
            EXPECT_FALSE(keyed.table(op)->keyedReplayable(1)) << name;
        replayMemo(trace, keyed);
        probeColumns(trace, oracle);
        EXPECT_FALSE(trace.store().hasAccessKeys(InstClass::FpMul)) << name;
        EXPECT_FALSE(trace.store().hasAccessKeys(InstClass::FpDiv)) << name;
        expectSameTables(trace, keyed, oracle, name);
    }

    // Hooks and phase accumulators observe every access: probeBlock.
    for (bool phased : {false, true}) {
        Trace trace = *cached;
        MemoBank keyed = MemoBank::standard(base);
        MemoBank oracle = MemoBank::standard(base);
        CountingHooks hk, ho;
        std::vector<PhaseAccum> pk, po;
        pk.reserve(3);
        po.reserve(3);
        for (InstClass cls : keyed_classes) {
            Operation op = *memoOperation(cls);
            if (phased) {
                keyed.table(op)->setPhaseAccum(&pk.emplace_back(64));
                oracle.table(op)->setPhaseAccum(&po.emplace_back(64));
            } else {
                keyed.table(op)->setHooks(&hk);
                oracle.table(op)->setHooks(&ho);
            }
            EXPECT_FALSE(keyed.table(op)->keyedReplayable(1));
        }
        replayMemo(trace, keyed);
        probeColumns(trace, oracle);
        for (InstClass cls : keyed_classes)
            EXPECT_FALSE(trace.store().hasAccessKeys(cls));
        EXPECT_EQ(hk.events, ho.events);
        for (InstClass cls : keyed_classes) {
            Operation op = *memoOperation(cls);
            keyed.table(op)->setHooks(nullptr);
            oracle.table(op)->setHooks(nullptr);
            keyed.table(op)->setPhaseAccum(nullptr);
            oracle.table(op)->setPhaseAccum(nullptr);
        }
        expectSameTables(trace, keyed, oracle,
                         phased ? "phases" : "hooks");
    }

    // A table that holds entries continues through probeBlock; a
    // flush makes it eligible again.
    {
        MemoBank keyed = MemoBank::standard(base);
        MemoBank oracle = MemoBank::standard(base);
        replayMemo(*cached, keyed);
        probeColumns(*cached, oracle);
        MemoTable *fp = keyed.table(Operation::FpMul);
        EXPECT_FALSE(fp->keyedReplayable(1));
        replayMemo(*cached, keyed);
        probeColumns(*cached, oracle);
        expectSameTables(*cached, keyed, oracle, "non-empty");
        fp->flush();
        EXPECT_TRUE(fp->keyedReplayable(1));
    }

    // The tick guard: a call's ticks must fit 32 bits.
    MemoTable fresh(Operation::FpMul, base);
    EXPECT_TRUE(fresh.keyedReplayable(std::numeric_limits<uint32_t>::max() - 1));
    EXPECT_FALSE(fresh.keyedReplayable(std::numeric_limits<uint32_t>::max()));

    // replayKeyed refuses a table it cannot replay exactly.
    MemoConfig rnd = base;
    rnd.replacement = Replacement::Random;
    MemoTable random_table(Operation::FpMul, rnd);
    const AccessKey key{0, 0};
    const uint64_t operand = fpBits(3.0);
    EXPECT_THROW(random_table.replayKeyed(&key, &operand, &operand,
                                          &operand, 1),
                 std::logic_error);
}

TEST(ReplayKeyed, KeyPassSharesIdsExactlyWhenTagsMatch)
{
    const uint64_t x = fpBits(2.5), y = fpBits(3.75), z = fpBits(-7.0);
    const uint64_t nan1 = 0x7ff8000000000001ULL;
    const uint64_t nan2 = 0x7ff8000000000002ULL;
    const uint64_t inf = fpBits(std::numeric_limits<double>::infinity());
    const uint64_t pz = fpBits(0.0), nz = fpBits(-0.0), one = fpBits(1.0);

    // FpMul: commuted pairs share an id, both-NaN pairs keep operand
    // order, and a zero or a one operand is trivial.
    std::vector<uint64_t> a = {x, y, nan1, nan2, pz, z, one, inf, x};
    std::vector<uint64_t> b = {y, x, nan2, nan1, z, nz, z, x, inf};
    AccessKeys k = MemoTable::keyAccesses(Operation::FpMul, a.data(),
                                          b.data(), a.size());
    ASSERT_EQ(k.size(), a.size());
    EXPECT_EQ(k[0].id, k[1].id);
    EXPECT_NE(k[2].id, k[3].id);
    EXPECT_EQ(k[4].id, kTrivialKey);
    EXPECT_EQ(k[5].id, kTrivialKey);
    EXPECT_EQ(k[6].id, kTrivialKey);
    EXPECT_NE(k[7].id, kTrivialKey); // inf * x is not trivial
    EXPECT_EQ(k[7].id, k[8].id);
    EXPECT_EQ(k[0].fields,
              static_cast<uint32_t>(
                  detail::topMantissa(x, kKeyFpIndexBits) << 16 |
                  detail::topMantissa(y, kKeyFpIndexBits)));
    // Ids are dense, in order of first appearance.
    EXPECT_EQ(k[0].id, 0u);
    EXPECT_EQ(k[2].id, 1u);
    EXPECT_EQ(k[3].id, 2u);
    EXPECT_EQ(k[7].id, 3u);

    // FpDiv does not commute; x/1 and 0/x are trivial, x/0 is not.
    a = {x, y, x, pz, x};
    b = {y, x, one, x, pz};
    k = MemoTable::keyAccesses(Operation::FpDiv, a.data(), b.data(),
                               a.size());
    EXPECT_NE(k[0].id, k[1].id);
    EXPECT_EQ(k[2].id, kTrivialKey);
    EXPECT_EQ(k[3].id, kTrivialKey);
    EXPECT_NE(k[4].id, kTrivialKey);

    // IntMul: commuted pairs share an id; 0 and 1 are trivial.
    a = {3, 5, 0, 1, 0x123456789abcdefULL};
    b = {5, 3, 9, 9, 0xfedcba987654321ULL};
    k = MemoTable::keyAccesses(Operation::IntMul, a.data(), b.data(),
                               a.size());
    EXPECT_EQ(k[0].id, k[1].id);
    EXPECT_EQ(k[2].id, kTrivialKey);
    EXPECT_EQ(k[3].id, kTrivialKey);
    EXPECT_EQ(k[4].fields, static_cast<uint32_t>(a[4] ^ b[4]));

    EXPECT_THROW(MemoTable::keyAccesses(Operation::FpSqrt, a.data(),
                                        b.data(), a.size()),
                 std::invalid_argument);
}

TEST(ReplayKeyed, KeyStreamBelongsToTheStoreContents)
{
    Trace t = *kernelTrace("vsurf", 0);
    const TraceStore &s = t.store();
    EXPECT_FALSE(s.hasAccessKeys(InstClass::FpMul));
    const size_t bytes = t.memoryBytes();
    const uint64_t builds = TraceStore::accessKeyBuilds();
    const AccessKeys &k = s.accessKeys(InstClass::FpMul);
    EXPECT_EQ(k.size(), s.classColumns(InstClass::FpMul).a.size());
    EXPECT_EQ(&s.accessKeys(InstClass::FpMul), &k); // built once
    EXPECT_EQ(TraceStore::accessKeyBuilds(), builds + 1);
    EXPECT_TRUE(s.hasAccessKeys(InstClass::FpMul));
    EXPECT_FALSE(s.hasAccessKeys(InstClass::FpDiv)); // per class
    EXPECT_EQ(t.memoryBytes(), bytes); // not counted

    // A copy never carries the stream.
    Trace copy = t;
    EXPECT_FALSE(copy.store().hasAccessKeys(InstClass::FpMul));
    copy = t;
    EXPECT_FALSE(copy.store().hasAccessKeys(InstClass::FpMul));

    // A spill round trip adopts fresh columns, without a stream.
    const Trace back = decodeTraceChunked(encodeTraceChunked(t, 4096));
    EXPECT_FALSE(back.store().hasAccessKeys(InstClass::FpMul));

    // push() and clear() drop it; the next use keys the new contents.
    Instruction inst;
    inst.cls = InstClass::FpMul;
    inst.a = fpBits(3.0);
    inst.b = fpBits(5.0);
    inst.result = fpBits(15.0);
    t.push(inst);
    EXPECT_FALSE(s.hasAccessKeys(InstClass::FpMul));
    EXPECT_EQ(s.accessKeys(InstClass::FpMul).size(),
              s.classColumns(InstClass::FpMul).a.size());
    t.clear();
    EXPECT_FALSE(s.hasAccessKeys(InstClass::FpMul));
    EXPECT_TRUE(s.accessKeys(InstClass::FpMul).empty());

    EXPECT_THROW(s.accessKeys(InstClass::FpSqrt), std::invalid_argument);
}

TEST(ReplayKeyed, ConcurrentFirstUseBuildsKeysOnce)
{
    // 8 pool workers replay one shared frozen trace at once, each into
    // its own bank of a different Figure 3 size; every worker waits at
    // the gate, so the first uses of the key streams overlap.
    constexpr unsigned kThreads = 8;
    const Trace shared = *kernelTrace("vgpwl", 1); // a copy: no keys yet
    const std::vector<MemoConfig> cfgs = check::fig3Configs();
    ASSERT_GE(cfgs.size(), kThreads);

    std::vector<MemoBank> serial;
    for (unsigned t = 0; t < kThreads; t++) {
        serial.push_back(MemoBank::standard(cfgs[t]));
        probeColumns(shared, serial.back());
    }
    size_t classes = 0;
    for (InstClass cls : keyed_classes)
        classes += !shared.store().classColumns(cls).a.empty();
    ASSERT_GT(classes, 0u);

    const uint64_t builds = TraceStore::accessKeyBuilds();
    std::vector<MemoBank> got;
    for (unsigned t = 0; t < kThreads; t++)
        got.push_back(MemoBank::standard(cfgs[t]));
    {
        exec::ThreadPool pool(kThreads);
        std::atomic<unsigned> arrived{0};
        for (unsigned t = 0; t < kThreads; t++)
            pool.submit([&, t] {
                arrived.fetch_add(1);
                while (arrived.load() < kThreads)
                    std::this_thread::yield();
                replayMemo(shared, got[t]);
            });
        pool.wait();
    }
    EXPECT_EQ(TraceStore::accessKeyBuilds(), builds + classes);
    for (unsigned t = 0; t < kThreads; t++)
        expectSameTables(shared, got[t], serial[t],
                         "worker " + std::to_string(t));
}

} // anonymous namespace
} // namespace memo
