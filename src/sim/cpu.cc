#include "cpu.hh"

#include "core/check.hh"

namespace memo
{

CpuModel::CpuModel(const CpuConfig &cfg)
    : cfg(cfg)
{
}

SimResult
CpuModel::run(const Trace &trace, MemoBank *bank)
{
    SimResult res;
    MemoryHierarchy hier(cfg.l1, cfg.l2, cfg.memoryLatency);

    // Hoist the per-instruction bank->table() map find out of the hot
    // loop: one table pointer per instruction class, resolved once.
    MemoTable *tables[numInstClasses] = {};
    if (bank) {
        for (unsigned c = 0; c < numInstClasses; c++)
            if (auto op = memoOperation(static_cast<InstClass>(c)))
                tables[c] = bank->table(*op);
    }

    // Progress batching: one relaxed add per 64 Ki instructions keeps
    // the heartbeat's counter out of the hot loop's cache traffic.
    constexpr uint64_t progressBatch = 64 * 1024;
    uint64_t sinceProgress = 0;

    // Occupancy is counted per (class, latency) and folded into the
    // histograms once after the loop; latencies past the array are
    // recorded directly.
    constexpr unsigned maxCountedLat = 64;
    uint64_t latCount[numInstClasses][maxCountedLat + 1] = {};

    // Walk the class column and materialize a record only where its
    // fields are read, so the operand columns of classes without a
    // table are never streamed.
    const TraceStore &store = trace.store();
    const uint8_t *classes = store.clsData();
    const size_t n = trace.size();
    for (size_t i = 0; i < n; i++) {
        const auto cls = static_cast<InstClass>(classes[i]);
        unsigned cls_idx = classes[i];
        unsigned lat;
        switch (cls) {
          case InstClass::Load:
            lat = hier.load(store.get(i).addr);
            break;
          case InstClass::Store:
            lat = hier.store(store.get(i).addr);
            break;
          default: {
            lat = cfg.lat[cls];
            MemoTable *table = tables[cls_idx];
            if (table) {
                const Instruction inst = store.get(i);
                if (auto v = table->lookup(inst.a, inst.b)) {
                    // A successful lookup gives the result of a
                    // multi-cycle computation in a single cycle.
                    MEMO_CHECK(*v == inst.result,
                               "memoized value must match computation "
                               "(MEMO-TABLE transparency, section 2)");
                    res.memoSaved[cls_idx] += lat - 1;
                    lat = 1;
                } else {
                    table->update(inst.a, inst.b, inst.result);
                }
            }
            break;
          }
        }
        res.cycles[cls_idx] += lat;
        res.count[cls_idx]++;
        if (lat <= maxCountedLat)
            latCount[cls_idx][lat]++;
        else
            res.occupancy[cls_idx].record(lat);
        res.totalCycles += lat;
        if (cfg.progress && ++sinceProgress == progressBatch) {
            cfg.progress->fetch_add(sinceProgress,
                                    std::memory_order_relaxed);
            sinceProgress = 0;
        }
    }
    if (cfg.progress && sinceProgress)
        cfg.progress->fetch_add(sinceProgress,
                                std::memory_order_relaxed);
    for (unsigned c = 0; c < numInstClasses; c++)
        for (unsigned lat = 0; lat <= maxCountedLat; lat++)
            if (latCount[c][lat])
                res.occupancy[c].record(lat, latCount[c][lat]);

    // Annulled delay slots: a deterministic fraction of branches
    // wastes one issue cycle each.
    uint64_t branches = res.count[static_cast<unsigned>(
        InstClass::Branch)];
    res.annulCycles = branches * cfg.annulPerMille / 1000;
    res.cycles[static_cast<unsigned>(InstClass::Branch)] +=
        res.annulCycles;
    res.totalCycles += res.annulCycles;

    if (bank) {
        for (Operation op : {Operation::IntMul, Operation::FpMul,
                             Operation::FpDiv, Operation::FpSqrt,
                             Operation::FpLog, Operation::FpSin,
                             Operation::FpCos, Operation::FpExp}) {
            if (const MemoTable *t = bank->table(op))
                res.memo[op] = t->stats();
        }
    }
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
