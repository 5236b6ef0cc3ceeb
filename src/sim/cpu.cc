#include "cpu.hh"

#include <algorithm>
#include <optional>

namespace memo
{

void
replayTables(const TraceStore &store, MemoBank &bank)
{
    // Accesses of one table keep their trace order and different
    // tables are independent state, so replaying class by class is
    // exact. A table that can replay keyed does so over the store's
    // shared key stream (built by the first replay that needs it);
    // every other table takes probeBlock, where the kReplayBlock
    // chunking only moves call boundaries, which the batch-probe
    // contract (probeBlock(n) == n scalar lookup/update calls) makes
    // invisible. Classes without a table in this bank (or not
    // memoizable at all) are skipped.
    for (unsigned c = 0; c < numInstClasses; c++) {
        const auto cls = static_cast<InstClass>(c);
        auto op = memoOperation(cls);
        MemoTable *table = op ? bank.table(*op) : nullptr;
        if (!table)
            continue;
        const TraceStore::ClassColumns &col = store.classColumns(cls);
        const size_t m = col.a.size();
        if (m != 0 && table->keyedReplayable(m)) {
            table->replayKeyed(store.accessKeys(cls).data(), col.a.data(),
                               col.b.data(), col.r.data(), m);
            continue;
        }
        for (size_t base = 0; base < m; base += kReplayBlock)
            table->probeBlock(col.a.data() + base, col.b.data() + base,
                              col.r.data() + base,
                              std::min(m - base, kReplayBlock));
    }
}

namespace
{

/** Hierarchy walks run by CpuModel::run (CpuModel::memoryWalks()). */
std::atomic<uint64_t> memory_walks{0};

/** setMemoryPassKeyFault() state; read once per CpuModel::run(). */
std::atomic<bool> pass_key_fault{false};

/** Every field of @p cfg that the hierarchy walk reads. */
MemoryGeometry
geometryOf(const CpuConfig &cfg)
{
    const bool fault = pass_key_fault.load(std::memory_order_relaxed);
    return {cfg.l1.size,        cfg.l1.lineSize, cfg.l1.ways,
            cfg.l1.hitLatency,  cfg.l2.size,     cfg.l2.lineSize,
            cfg.l2.ways,        fault ? 0 : cfg.l2.hitLatency,
            cfg.memoryLatency};
}

/**
 * Walk @p store's loads and stores through a fresh hierarchy of
 * @p cfg's geometry, counting every record's class on the way, and
 * add the records walked to cfg.progress in batches.
 */
MemoryPass
walkMemory(const TraceStore &store, const CpuConfig &cfg)
{
    memory_walks.fetch_add(1, std::memory_order_relaxed);
    MemoryPass pass;
    MemoryHierarchy hier(cfg.l1, cfg.l2, cfg.memoryLatency);

    // Progress batching: one relaxed add per 64 Ki instructions keeps
    // the heartbeat's counter out of the hot loop's cache traffic.
    constexpr uint64_t progressBatch = 64 * 1024;
    uint64_t sinceProgress = 0;

    // Walk the class column, and the address column in step with it.
    const uint8_t *classes = store.clsData();
    const uint64_t *addrs = store.addrData();
    const size_t n = store.size();
    for (size_t i = 0; i < n; i++) {
        const auto cls = static_cast<InstClass>(classes[i]);
        pass.count[classes[i]]++;
        if (TraceStore::hasAddress(cls)) {
            const bool load = cls == InstClass::Load;
            const unsigned lat =
                load ? hier.load(*addrs++) : hier.store(*addrs++);
            MemoryPass::Latencies &l = load ? pass.load : pass.store;
            l.cycles += lat;
            if (lat <= MemoryPass::kCountedLatency) {
                l.counted[lat]++;
            } else {
                auto it = std::find_if(
                    l.over.begin(), l.over.end(),
                    [&](const auto &o) { return o.first == lat; });
                if (it == l.over.end())
                    l.over.emplace_back(lat, 1);
                else
                    it->second++;
            }
        }
        if (cfg.progress && ++sinceProgress == progressBatch) {
            cfg.progress->fetch_add(sinceProgress,
                                    std::memory_order_relaxed);
            sinceProgress = 0;
        }
    }
    if (cfg.progress && sinceProgress)
        cfg.progress->fetch_add(sinceProgress,
                                std::memory_order_relaxed);

    pass.l1Accesses = hier.l1().stats().accesses;
    pass.l1Hits = hier.l1().stats().hits;
    pass.l2Accesses = hier.l2().stats().accesses;
    pass.l2Hits = hier.l2().stats().hits;
    return pass;
}

} // anonymous namespace

void
setMemoryPassKeyFault(bool enabled)
{
    pass_key_fault.store(enabled, std::memory_order_relaxed);
}

CpuModel::CpuModel(const CpuConfig &cfg)
    : cfg(cfg)
{
}

uint64_t
CpuModel::memoryWalks()
{
    return memory_walks.load(std::memory_order_relaxed);
}

SimResult
CpuModel::run(const Trace &trace, MemoBank *bank)
{
    // The hierarchy walk depends only on the trace and the geometry,
    // so the store keeps it: the first run under a geometry walks and
    // every later one reads the pass. A run under another geometry
    // than the store's walks for itself.
    const TraceStore &store = trace.store();
    bool walked = false;
    auto walk = [&] {
        walked = true;
        return walkMemory(store, cfg);
    };
    std::optional<MemoryPass> own;
    const MemoryPass *pass = store.memoryPass(geometryOf(cfg), walk);
    if (!pass)
        pass = &own.emplace(walk());
    if (cfg.progress && !walked)
        cfg.progress->fetch_add(store.size(), std::memory_order_relaxed);

    SimResult res;
    res.count = pass->count;

    // Each table sees its class column in trace order, so it hits as
    // in the per-instruction loop; this run's hits cost one cycle each.
    std::array<uint64_t, numInstClasses> hits{};
    if (bank) {
        auto tableOf = [&](unsigned c) -> const MemoTable * {
            auto op = memoOperation(static_cast<InstClass>(c));
            return op ? bank->table(*op) : nullptr;
        };
        for (unsigned c = 0; c < numInstClasses; c++)
            if (const MemoTable *t = tableOf(c))
                hits[c] = t->stats().allHits();
        replayTables(store, *bank);
        for (unsigned c = 0; c < numInstClasses; c++) {
            if (const MemoTable *t = tableOf(c)) {
                hits[c] = t->stats().allHits() - hits[c];
                res.memo[t->operation()] = t->stats();
            }
        }
    }

    // Loads and stores cost what the walk found; every other class
    // costs its unit latency, or one cycle on a table hit.
    for (unsigned c = 0; c < numInstClasses; c++) {
        const auto cls = static_cast<InstClass>(c);
        if (TraceStore::hasAddress(cls)) {
            const MemoryPass::Latencies &l =
                cls == InstClass::Load ? pass->load : pass->store;
            res.cycles[c] = l.cycles;
            for (unsigned lat = 0; lat <= MemoryPass::kCountedLatency;
                 lat++)
                if (l.counted[lat])
                    res.occupancy[c].record(lat, l.counted[lat]);
            for (const auto &[lat, k] : l.over)
                res.occupancy[c].record(lat, k);
        } else if (res.count[c]) {
            const unsigned lat = cfg.lat[cls];
            const uint64_t h = hits[c], miss = res.count[c] - h;
            res.cycles[c] = miss * lat + h;
            res.memoSaved[c] = h * (lat - 1);
            if (h)
                res.occupancy[c].record(1, h);
            if (miss)
                res.occupancy[c].record(lat, miss);
        }
        res.totalCycles += res.cycles[c];
    }

    // Annulled delay slots: a deterministic fraction of branches
    // wastes one issue cycle each.
    uint64_t branches = res.count[static_cast<unsigned>(
        InstClass::Branch)];
    res.annulCycles = branches * cfg.annulPerMille / 1000;
    res.cycles[static_cast<unsigned>(InstClass::Branch)] +=
        res.annulCycles;
    res.totalCycles += res.annulCycles;

    res.l1 = CacheStats{pass->l1Accesses, pass->l1Hits};
    res.l2 = CacheStats{pass->l2Accesses, pass->l2Hits};

    // Fold per-run breakdowns into the process-wide registry. Every
    // quantity is an exact integer derived from this one trace, so
    // sweeps merge to bit-identical snapshots at any --jobs level.
    auto &reg = obs::StatsRegistry::global();
    reg.add("sim.cpu.runs", 1);
    reg.add("sim.cpu.instructions", trace.size());
    reg.add("sim.cpu.cycles", res.totalCycles);
    reg.add("sim.cpu.annulCycles", res.annulCycles);
    reg.add("sim.cpu.memoSavedCycles", res.totalMemoSaved());
    for (unsigned i = 0; i < numInstClasses; i++) {
        if (!res.count[i])
            continue;
        InstClass cls = static_cast<InstClass>(i);
        std::string name(instClassName(cls));
        reg.add("sim.cpu.cycles." + name, res.cycles[i]);
        if (res.memoSaved[i])
            reg.add("sim.cpu.memoSaved." + name, res.memoSaved[i]);
        reg.mergeHistogram("sim.cpu.occupancy." + name,
                           res.occupancy[i]);
    }
    return res;
}

} // namespace memo
