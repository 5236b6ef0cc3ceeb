#include "cpu.hh"

#include <algorithm>

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

CpuModel::CpuModel(const CpuConfig &cfg)
    : cfg(cfg)
{
}

SimResult
CpuModel::run(const Trace &trace, MemoBank *bank)
{
    SimResult res;
    MemoryHierarchy hier(cfg.l1, cfg.l2, cfg.memoryLatency);

    // Progress batching: one relaxed add per 64 Ki instructions keeps
    // the heartbeat's counter out of the hot loop's cache traffic.
    constexpr uint64_t progressBatch = 64 * 1024;
    uint64_t sinceProgress = 0;

    // Memory occupancy is counted per (class, latency) and folded into
    // the histograms once after the loop; latencies past the array are
    // recorded directly.
    constexpr unsigned maxCountedLat = 64;
    uint64_t latCount[numInstClasses][maxCountedLat + 1] = {};

    // Only loads and stores take a latency that depends on the record:
    // walk the class column, and the address column in step with it.
    // Every other class costs its unit latency, or one cycle on a
    // table hit, so it is counted here and charged after the replay.
    const TraceStore &store = trace.store();
    const uint8_t *classes = store.clsData();
    const uint64_t *addrs = store.addrData();
    const size_t n = trace.size();
    for (size_t i = 0; i < n; i++) {
        const auto cls = static_cast<InstClass>(classes[i]);
        const unsigned cls_idx = classes[i];
        res.count[cls_idx]++;
        if (TraceStore::hasAddress(cls)) {
            unsigned lat = cls == InstClass::Load ? hier.load(*addrs++)
                                                  : hier.store(*addrs++);
            res.cycles[cls_idx] += lat;
            if (lat <= maxCountedLat)
                latCount[cls_idx][lat]++;
            else
                res.occupancy[cls_idx].record(lat);
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

    for (unsigned c = 0; c < numInstClasses; c++) {
        const auto cls = static_cast<InstClass>(c);
        if (TraceStore::hasAddress(cls)) {
            for (unsigned lat = 0; lat <= maxCountedLat; lat++)
                if (latCount[c][lat])
                    res.occupancy[c].record(lat, latCount[c][lat]);
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

    res.l1 = hier.l1().stats();
    res.l2 = hier.l2().stats();

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
