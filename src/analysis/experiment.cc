#include "experiment.hh"

#include <algorithm>

#include "exec/parallel.hh"
#include "exec/trace_cache.hh"
#include "img/generate.hh"
#include "obs/stats.hh"

namespace memo
{

Image
cropForTrace(const Image &img, int max_dim)
{
    if (img.width() <= max_dim && img.height() <= max_dim)
        return img;
    int w = std::min(img.width(), max_dim);
    int h = std::min(img.height(), max_dim);
    int x0 = (img.width() - w) / 2;
    int y0 = (img.height() - h) / 2;
    Image out(w, h, img.bands(), img.type());
    for (int y = 0; y < h; y++)
        for (int x = 0; x < w; x++)
            for (int b = 0; b < img.bands(); b++)
                out.at(x, y, b) = img.at(x0 + x, y0 + y, b);
    return out;
}

Trace
traceMmKernel(const MmKernel &kernel, const Image &input, int max_dim)
{
    Trace trace;
    trace.reserve(1 << 20);
    Recorder rec(trace);
    Image view = cropForTrace(input, max_dim);
    kernel.run(rec, view, nullptr);
    return trace;
}

Trace
traceSciWorkload(const SciWorkload &workload)
{
    Trace trace;
    trace.reserve(1 << 20);
    Recorder rec(trace);
    workload.run(rec);
    return trace;
}

std::shared_ptr<const Trace>
cachedMmKernelTrace(const MmKernel &kernel, const NamedImage &input,
                    int max_dim)
{
    return exec::TraceCache::instance().get(
        {kernel.name, input.name, max_dim},
        [&] { return traceMmKernel(kernel, input.image, max_dim); });
}

std::shared_ptr<const Trace>
cachedSciTrace(const SciWorkload &workload)
{
    return exec::TraceCache::instance().get(
        {workload.name, "", 0},
        [&] { return traceSciWorkload(workload); });
}

namespace
{

/** Operations a MemoBank may hold a table for. */
constexpr Operation bank_ops[] = {
    Operation::IntMul, Operation::FpMul,  Operation::FpDiv,
    Operation::FpSqrt, Operation::FpLog,  Operation::FpSin,
    Operation::FpCos,  Operation::FpExp,
};

/** Table-stat snapshot taken before a replay (absent tables omitted). */
std::map<Operation, MemoStats>
snapshotStats(const MemoBank &bank)
{
    std::map<Operation, MemoStats> before;
    for (Operation op : bank_ops)
        if (const MemoTable *t = bank.table(op))
            before[op] = t->stats();
    return before;
}

/**
 * Fold one replay's activity (current stats minus @p before) into the
 * global registry. Per-replay deltas are exact integers independent
 * of scheduling, so parallel sweeps produce bit-identical registry
 * snapshots.
 */
void
foldReplayStats(const MemoBank &bank,
                const std::map<Operation, MemoStats> &before,
                uint64_t instructions)
{
    auto &reg = obs::StatsRegistry::global();
    reg.add("analysis.replay.runs", 1);
    reg.add("analysis.replay.instructions", instructions);
    for (Operation op : bank_ops) {
        const MemoTable *t = bank.table(op);
        if (!t)
            continue;
        const MemoStats &a = t->stats();
        const MemoStats &b = before.at(op);
        std::string prefix =
            "core.table." + std::string(operationName(op)) + ".";
        reg.add(prefix + "lookups", a.lookups - b.lookups);
        reg.add(prefix + "hits", a.hits - b.hits);
        reg.add(prefix + "misses", a.misses - b.misses);
        reg.add(prefix + "insertions", a.insertions - b.insertions);
        reg.add(prefix + "evictions", a.evictions - b.evictions);
        reg.add(prefix + "trivialHits",
                a.trivialHits - b.trivialHits);
    }
}

} // anonymous namespace

void
replayMemo(const Trace &trace, MemoBank &bank)
{
    // Snapshot the attached tables so only this replay's activity is
    // folded into the registry below (tables accumulate across calls).
    auto before = snapshotStats(bank);

    replayTables(trace.store(), bank);
    foldReplayStats(bank, before, trace.size());
}

namespace
{

double
ratioOrAbsent(const MemoBank &bank, Operation op)
{
    const MemoTable *t = bank.table(op);
    if (!t || t->stats().lookups == 0)
        return -1.0;
    return t->stats().hitRatio();
}

} // anonymous namespace

UnitHits
hitsOf(const MemoBank &bank)
{
    UnitHits h;
    h.intMul = ratioOrAbsent(bank, Operation::IntMul);
    h.fpMul = ratioOrAbsent(bank, Operation::FpMul);
    h.fpDiv = ratioOrAbsent(bank, Operation::FpDiv);
    return h;
}

UnitHits
measureMmKernelOnImage(const MmKernel &kernel, const Image &input,
                       const MemoConfig &cfg, int max_dim)
{
    MemoBank bank = MemoBank::standard(cfg);
    Trace trace = traceMmKernel(kernel, input, max_dim);
    replayMemo(trace, bank);
    return hitsOf(bank);
}

UnitHits
measureSci(const SciWorkload &workload, const MemoConfig &cfg)
{
    MemoBank bank = MemoBank::standard(cfg);
    auto trace = cachedSciTrace(workload);
    replayMemo(*trace, bank);
    return hitsOf(bank);
}

namespace
{

/** Per-unit stat shard produced by one (config, image) work item. */
struct UnitStats
{
    MemoStats intMul, fpMul, fpDiv;
};

UnitStats
unitStatsOf(const MemoBank &bank)
{
    UnitStats s;
    if (const MemoTable *t = bank.table(Operation::IntMul))
        s.intMul = t->stats();
    if (const MemoTable *t = bank.table(Operation::FpMul))
        s.fpMul = t->stats();
    if (const MemoTable *t = bank.table(Operation::FpDiv))
        s.fpDiv = t->stats();
    return s;
}

double
ratioOfPool(const MemoStats &s)
{
    return s.lookups ? s.hitRatio() : -1.0;
}

} // anonymous namespace

std::vector<UnitHits>
measureMmKernelConfigs(const MmKernel &kernel,
                       const std::vector<MemoConfig> &cfgs, int max_dim,
                       unsigned jobs)
{
    // Generate (or fetch) the shared traces up front, in parallel.
    const auto &images = standardImages();
    auto traces = exec::sweep(
        images.size(),
        [&](size_t i) {
            return cachedMmKernelTrace(kernel, images[i], max_dim);
        },
        jobs);

    // Fine-grained shards: one work item per (config, image) pair, so
    // a handful of configs still fans out across every worker. Each
    // item replays one shared immutable trace into its own fresh bank
    // and returns the per-unit stat deltas. The tables were flushed
    // between images before, so a fresh bank per image produces the
    // same per-image integer deltas; pooling them below in image
    // order reproduces the pooled table counters exactly, for any
    // thread count and any grain.
    const size_t n_img = traces.size();
    auto shards = exec::sweep(
        cfgs.size() * n_img,
        [&](size_t idx) {
            MemoBank bank = MemoBank::standard(cfgs[idx / n_img]);
            replayMemo(*traces[idx % n_img], bank);
            return unitStatsOf(bank);
        },
        jobs, /*grain=*/2);

    // Deterministic fold: image order within each config, integer
    // counter sums (MemoStats::merge is commutative and exact).
    std::vector<UnitHits> out(cfgs.size());
    for (size_t ci = 0; ci < cfgs.size(); ci++) {
        UnitStats pool;
        for (size_t ii = 0; ii < n_img; ii++) {
            const UnitStats &s = shards[ci * n_img + ii];
            pool.intMul.merge(s.intMul);
            pool.fpMul.merge(s.fpMul);
            pool.fpDiv.merge(s.fpDiv);
        }
        out[ci].intMul = ratioOfPool(pool.intMul);
        out[ci].fpMul = ratioOfPool(pool.fpMul);
        out[ci].fpDiv = ratioOfPool(pool.fpDiv);
    }
    return out;
}

} // namespace memo
