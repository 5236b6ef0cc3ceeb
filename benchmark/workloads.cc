#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "analysis/experiment.hh"
#include "check/differ.hh"
#include "check/golden.hh"
#include "check/measure.hh"
#include "check/report.hh"
#include "exec/parallel.hh"
#include "exec/trace_cache.hh"
#include "inputs.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "prof/prof.hh"
#include "sim/cpu.hh"
#include "workloads/workload.hh"

namespace ledger
{

namespace
{

using memo::MemoStats;
using memo::NamedImage;
using memo::Trace;
using TracePtr = std::shared_ptr<const Trace>;

constexpr int crop = memo::check::goldenCrop;

/** The capped workload's trace-cache budget. */
constexpr size_t cappedBudgetBytes = size_t{64} << 20;

/** A span that exists only while the global profiler records. */
class LayerSpan
{
  public:
    LayerSpan(const std::string &phase, std::string_view layer)
    {
        if (memo::prof::Profiler::global().enabled())
            span_.emplace(phase + "/" + std::string(layer));
    }

  private:
    std::optional<memo::prof::ProfSpan> span_;
};

/** 64-bit FNV-1a over simulated statistics. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(uint8_t b)
    {
        h = (h ^ b) * 0x100000001b3ull;
    }

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    add(const MemoStats &s)
    {
        for (uint64_t v : {s.lookups, s.hits, s.trivialHits, s.misses,
                           s.insertions, s.evictions, s.trivialBypassed,
                           s.parityMisses})
            add(v);
    }

    void
    add(std::string_view bytes)
    {
        for (char c : bytes)
            byte(static_cast<uint8_t>(c));
    }
};

/**
 * The trace of @p k over @p img through the process-wide cache, under
 * the key cachedMmKernelTrace() uses; the generator is wrapped so the
 * recording itself is timed and counted.
 */
TracePtr
fetchTrace(const std::string &phase, const std::string &layer,
           const memo::MmKernel &k, const NamedImage &img,
           std::atomic<uint64_t> &records)
{
    LayerSpan get(phase, layer + "/get");
    return memo::exec::TraceCache::instance().get(
        {k.name, img.name, crop}, [&] {
            LayerSpan rec(phase, layer + "/get/record");
            Trace t = memo::traceMmKernel(k, img.image, crop);
            records += t.size();
            return t;
        });
}

/** Every kernel x image trace, fetched in parallel; kernel-major. */
std::vector<TracePtr>
recordTraces(const std::string &phase,
             const std::vector<const memo::MmKernel *> &kernels,
             const std::vector<NamedImage> &images, unsigned jobs,
             std::atomic<uint64_t> &records)
{
    LayerSpan span(phase, "traces");
    const size_t n_img = images.size();
    return memo::exec::sweep(
        kernels.size() * n_img,
        [&](size_t i) {
            return fetchTrace(phase, "traces", *kernels[i / n_img],
                              images[i % n_img], records);
        },
        jobs);
}

/** First mismatch of @p got against @p want, or "". */
std::string
compareValues(const std::vector<double> &want,
              const std::vector<double> &got, const std::string &what)
{
    if (want.size() != got.size())
        return what + ": " + std::to_string(got.size()) +
               " values, reference has " + std::to_string(want.size());
    for (size_t i = 0; i < want.size(); i++) {
        if (want[i] != got[i]) {
            std::ostringstream os;
            os.precision(17);
            os << what << ": value " << i << " is " << got[i]
               << ", reference " << want[i];
            return os.str();
        }
    }
    return "";
}

// ---------------------------------------------------------------------
// The Figure 3 sweep, shared by fig3_sweep (warm) and capped_fig3.

/** The Figure 3 plan: every sweep kernel x every 4-way table size. */
struct SweepPlan
{
    std::vector<const memo::MmKernel *> kernels;
    std::vector<memo::MemoConfig> cfgs;
};

SweepPlan
sweepPlan(Scale scale)
{
    SweepPlan p;
    for (const std::string &n : memo::sweepKernelNames())
        p.kernels.push_back(&memo::mmKernelByName(n));
    for (unsigned entries : memo::check::fig3Sizes()) {
        memo::MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = 4;
        p.cfgs.push_back(cfg);
    }
    if (scale == Scale::Small) {
        p.kernels.resize(2);
        p.cfgs = {p.cfgs[0], p.cfgs[2]};
    }
    return p;
}

/** One (kernel, config, image) item's table statistics. */
struct SweepItem
{
    MemoStats intMul, fpMul, fpDiv;
    uint64_t instructions = 0;
};

using TraceSource = std::function<TracePtr(size_t kernel, size_t image)>;

/**
 * Replay every (kernel, config, image) item into a fresh standard bank.
 * Items are indexed kernel-major, then config, then image, so a worker
 * walking consecutive items cycles through all images of one config.
 */
std::vector<SweepItem>
replaySweep(const SweepPlan &p, size_t n_img, unsigned jobs,
            const std::string &phase, const TraceSource &source)
{
    LayerSpan span(phase, "sweep");
    const size_t n_cfg = p.cfgs.size();
    return memo::exec::sweep(
        p.kernels.size() * n_cfg * n_img,
        [&](size_t idx) {
            TracePtr trace = source(idx / (n_cfg * n_img), idx % n_img);
            LayerSpan replay(phase, "sweep/replay");
            memo::MemoBank bank =
                memo::MemoBank::standard(p.cfgs[idx / n_img % n_cfg]);
            memo::replayMemo(*trace, bank);
            SweepItem it;
            it.intMul = bank.table(memo::Operation::IntMul)->stats();
            it.fpMul = bank.table(memo::Operation::FpMul)->stats();
            it.fpDiv = bank.table(memo::Operation::FpDiv)->stats();
            it.instructions = trace->size();
            return it;
        },
        jobs, /*grain=*/2);
}

/**
 * Pool the items of each (kernel, config) in image order and derive
 * the Figure 3 bands with check::measureSweepBands' arithmetic, so the
 * values compare bit for bit. @p corrupt bumps one pooled hit count.
 */
Outcome
foldSweep(const SweepPlan &p, size_t n_img,
          const std::vector<SweepItem> &items, bool corrupt,
          const std::string &phase)
{
    LayerSpan span(phase, "fold");
    Outcome o;
    const size_t n_k = p.kernels.size(), n_cfg = p.cfgs.size();
    std::vector<SweepItem> pool(n_k * n_cfg);
    for (size_t i = 0; i < items.size(); i++) {
        SweepItem &u = pool[i / n_img];
        u.intMul.merge(items[i].intMul);
        u.fpMul.merge(items[i].fpMul);
        u.fpDiv.merge(items[i].fpDiv);
        o.instructions += items[i].instructions;
    }
    if (corrupt)
        pool[0].fpDiv.hits++;

    Fnv fnv;
    for (const SweepItem &u : pool) {
        for (const MemoStats *s : {&u.intMul, &u.fpMul, &u.fpDiv}) {
            fnv.add(*s);
            o.core.merge(*s);
            if (auto e = memo::check::statsConserved(*s, "pooled table");
                e && o.error.empty())
                o.error = *e;
        }
    }
    o.digest = fnv.h;
    o.accesses = o.core.lookups + o.core.trivialBypassed;

    for (size_t c = 0; c < n_cfg; c++) {
        for (bool div_unit : {true, false}) {
            double sum = 0.0, lo = 1.0, hi = 0.0;
            int n = 0;
            for (size_t k = 0; k < n_k; k++) {
                const MemoStats &s = div_unit ? pool[k * n_cfg + c].fpDiv
                                              : pool[k * n_cfg + c].fpMul;
                double hr = s.lookups ? s.hitRatio() : -1.0;
                if (hr < 0)
                    continue;
                sum += hr;
                lo = std::min(lo, hr);
                hi = std::max(hi, hr);
                n++;
            }
            if (n)
                o.values.insert(o.values.end(), {sum / n, lo, hi});
            else
                o.values.insert(o.values.end(), {-1.0, -1.0, -1.0});
        }
    }
    return o;
}

/** The bands of check::measureSweepBands, flattened as foldSweep does. */
std::vector<double>
flattenBands(const memo::check::SweepBands &b)
{
    std::vector<double> v;
    for (size_t c = 0; c < b.fpDiv.size(); c++)
        for (const memo::check::BandRow *r : {&b.fpDiv[c], &b.fpMul[c]})
            v.insert(v.end(), {r->avg, r->lo, r->hi});
    return v;
}

/** Warm Figure 3 sweep: traces recorded and columns built in set-up. */
class Fig3Sweep : public Workload
{
  public:
    Fig3Sweep(uint64_t seed, unsigned jobs, Scale scale)
        : seed_(seed), jobs_(jobs), full_(scale == Scale::Full),
          plan_(sweepPlan(scale))
    {
    }

    Outcome
    setup(const std::string &phase) override
    {
        {
            LayerSpan span(phase, "images");
            images_ = seededImages(seed_);
        }
        std::atomic<uint64_t> records{0};
        traces_ = recordTraces(phase, plan_.kernels, images_, jobs_, records);
        Outcome o;
        {
            // The first classColumns() call builds every class's columns.
            LayerSpan span(phase, "warm");
            memo::exec::parallelFor(
                traces_.size(),
                [&](size_t i) {
                    LayerSpan build(phase, "warm/columns");
                    traces_[i]->store().classColumns(memo::InstClass::FpMul);
                },
                jobs_);
        }
        for (const TracePtr &t : traces_)
            o.columnRecords += t->store().opCount();
        o.records = records;
        o.distinctTraces = traces_.size();
        return o;
    }

    Outcome
    rep(const std::string &phase, bool corrupt) override
    {
        const size_t n_img = images_.size();
        auto items = replaySweep(plan_, n_img, jobs_, phase,
                                 [&](size_t k, size_t i) {
                                     return traces_[k * n_img + i];
                                 });
        Outcome o = foldSweep(plan_, n_img, items, corrupt, phase);
        o.distinctTraces = traces_.size();
        return o;
    }

    std::string
    reference(const Outcome &r) override
    {
        if (seed_ != 0 || !full_)
            return "";
        if (!ref_)
            ref_ = flattenBands(memo::check::measureSweepBands(plan_.cfgs));
        return compareValues(*ref_, r.values,
                             "bands vs check::measureSweepBands");
    }

  private:
    uint64_t seed_;
    unsigned jobs_;
    bool full_;
    SweepPlan plan_;
    std::vector<NamedImage> images_;
    std::vector<TracePtr> traces_; //!< kernel-major, image-minor
    std::optional<std::vector<double>> ref_;
};

/**
 * The process-wide trace cache, emptied and capped at 64 MiB over a
 * fresh spill directory under $TMPDIR (or /tmp) for this object's
 * lifetime; the destructor restores the defaults and removes the
 * directory.
 */
class CappedCache
{
  public:
    CappedCache()
    {
        const char *tmp = std::getenv("TMPDIR");
        dir_ = std::string(tmp && *tmp ? tmp : "/tmp") + "/memo-ledger-XXXXXX";
        if (!mkdtemp(dir_.data()))
            throw std::runtime_error("cannot create a spill directory from " +
                                     dir_);
        auto &cache = memo::exec::TraceCache::instance();
        cache.clear();
        cache.setBudgetBytes(cappedBudgetBytes);
        cache.setSpillDir(dir_);
    }

    ~CappedCache()
    {
        auto &cache = memo::exec::TraceCache::instance();
        cache.setSpillDir("");
        cache.setBudgetBytes(0);
        cache.clear();
        std::error_code ec; // a leftover directory is not worth a throw
        std::filesystem::remove_all(dir_, ec);
    }

    CappedCache(const CappedCache &) = delete;
    CappedCache &operator=(const CappedCache &) = delete;

  private:
    std::string dir_;
};

/**
 * The Figure 3 sweep, cold, under a 64 MiB trace-cache budget with a
 * fresh spill tier: every item fetches its trace through the cache, so
 * each trace is recorded once, spilled on eviction and decoded on
 * readmission.
 */
class CappedFig3 : public Workload
{
  public:
    CappedFig3(uint64_t seed, unsigned jobs, Scale scale)
        : seed_(seed), jobs_(jobs), plan_(sweepPlan(scale))
    {
    }

    Outcome
    setup(const std::string &phase) override
    {
        LayerSpan span(phase, "images");
        images_ = seededImages(seed_);
        return Outcome{};
    }

    Outcome
    rep(const std::string &phase, bool corrupt) override
    {
        CappedCache capped;
        std::atomic<uint64_t> records{0}, column_records{0};
        auto items = replaySweep(
            plan_, images_.size(), jobs_, phase,
            [&](size_t k, size_t i) {
                TracePtr t = fetchTrace(phase, "sweep", *plan_.kernels[k],
                                        images_[i], records);
                LayerSpan span(phase, "sweep/columns");
                t->store().classColumns(memo::InstClass::FpMul);
                column_records += t->store().opCount();
                return t;
            });
        Outcome o = foldSweep(plan_, images_.size(), items, false, phase);
        if (corrupt)
            o.digest ^= 1;
        o.records = records;
        o.columnRecords = column_records;
        o.distinctTraces = plan_.kernels.size() * images_.size();
        return o;
    }

    /** The same sweep recorded afresh, uncapped and without spilling. */
    std::string
    reference(const Outcome &r) override
    {
        if (!ref_) {
            auto &cache = memo::exec::TraceCache::instance();
            cache.clear();
            const size_t n_img = images_.size();
            std::atomic<uint64_t> records{0};
            auto traces = recordTraces("reference", plan_.kernels, images_,
                                       jobs_, records);
            auto items = replaySweep(plan_, n_img, jobs_, "reference",
                                     [&](size_t k, size_t i) {
                                         return traces[k * n_img + i];
                                     });
            ref_ = foldSweep(plan_, n_img, items, false, "reference")
                       .digest;
            cache.clear();
        }
        return r.digest == *ref_
                   ? ""
                   : "digest differs from the uncapped sweep's";
    }

  private:
    uint64_t seed_;
    unsigned jobs_;
    SweepPlan plan_;
    std::vector<NamedImage> images_;
    std::optional<uint64_t> ref_;
};

// ---------------------------------------------------------------------
// The cycle runs behind Tables 11-13.

/** One latency scenario of Tables 11-13 and the units it memoizes. */
struct Scenario
{
    memo::LatencyConfig lat;
    bool memoMul;
    bool memoDiv;
};

/** The fast/slow FPU pairs of Tables 11 (div), 12 (mul) and 13 (both). */
const std::vector<Scenario> &
scenarios()
{
    using memo::LatencyConfig;
    static const std::vector<Scenario> v = {
        {LatencyConfig::custom(3, 13), false, true},
        {LatencyConfig::custom(3, 39), false, true},
        {LatencyConfig::custom(3, 13), true, false},
        {LatencyConfig::custom(5, 13), true, false},
        {LatencyConfig::custom(3, 13), true, true},
        {LatencyConfig::custom(5, 39), true, true},
    };
    return v;
}

/** One (app, scenario, image) item: a baseline and a memoized run. */
struct CycleItem
{
    uint64_t base = 0, baseDiv = 0, baseMul = 0, memo = 0;
    MemoStats mul, div;
    uint64_t instructions = 0, l1Accesses = 0, l1Hits = 0;
    bool memoNotSlower = true;
};

/** The pooled result of one (app, scenario), as check::AppCycles. */
std::vector<double>
appCyclesValues(uint64_t total, uint64_t div, uint64_t mul, uint64_t memo,
                double hit_div, double hit_mul)
{
    return {static_cast<double>(total), static_cast<double>(div),
            static_cast<double>(mul),   static_cast<double>(memo),
            hit_div,                    hit_mul};
}

/** CpuModel runs with traces warm from set-up. */
class SpeedupCycles : public Workload
{
  public:
    SpeedupCycles(uint64_t seed, unsigned jobs, Scale scale)
        : seed_(seed), jobs_(jobs)
    {
        for (const std::string &n : memo::check::speedupApps())
            apps_.push_back(&memo::mmKernelByName(n));
        scenarios_ = scenarios();
        if (scale == Scale::Small) {
            apps_ = {&memo::mmKernelByName("vgauss")};
            scenarios_.resize(1);
        }
    }

    Outcome
    setup(const std::string &phase) override
    {
        {
            LayerSpan span(phase, "images");
            images_ = seededImages(seed_);
        }
        std::atomic<uint64_t> records{0};
        traces_ = recordTraces(phase, apps_, images_, jobs_, records);
        Outcome o;
        o.records = records;
        o.distinctTraces = traces_.size();
        return o;
    }

    Outcome
    rep(const std::string &phase, bool corrupt) override
    {
        const size_t n_img = images_.size(), n_sc = scenarios_.size();
        std::vector<CycleItem> items;
        {
            LayerSpan span(phase, "sim");
            items = memo::exec::sweep(
                apps_.size() * n_sc * n_img,
                [&](size_t idx) {
                    const Trace &t =
                        *traces_[idx / (n_sc * n_img) * n_img + idx % n_img];
                    const Scenario &sc = scenarios_[idx / n_img % n_sc];
                    LayerSpan cpu_span(phase, "sim/cpu");
                    memo::CpuConfig cfg;
                    cfg.lat = sc.lat;
                    memo::CpuModel cpu(cfg);
                    memo::MemoBank bank;
                    if (sc.memoMul)
                        bank.addTable(memo::Operation::FpMul,
                                      memo::MemoConfig{});
                    if (sc.memoDiv)
                        bank.addTable(memo::Operation::FpDiv,
                                      memo::MemoConfig{});
                    memo::SimResult b = cpu.run(t);
                    memo::SimResult m = cpu.run(t, &bank);
                    CycleItem it;
                    it.base = b.totalCycles;
                    it.baseDiv = b.cyclesOf(memo::InstClass::FpDiv);
                    it.baseMul = b.cyclesOf(memo::InstClass::FpMul);
                    it.memo = m.totalCycles;
                    if (const auto *tb = bank.table(memo::Operation::FpMul))
                        it.mul = tb->stats();
                    if (const auto *tb = bank.table(memo::Operation::FpDiv))
                        it.div = tb->stats();
                    it.instructions = 2 * t.size();
                    it.l1Accesses = b.l1.accesses + m.l1.accesses;
                    it.l1Hits = b.l1.hits + m.l1.hits;
                    it.memoNotSlower = m.totalCycles <= b.totalCycles;
                    return it;
                },
                jobs_, /*grain=*/2);
        }

        LayerSpan span(phase, "fold");
        Outcome o;
        Fnv fnv;
        for (size_t g = 0; g < items.size() / n_img; g++) {
            CycleItem pool;
            for (size_t i = g * n_img; i < (g + 1) * n_img; i++) {
                const CycleItem &it = items[i];
                pool.base += it.base;
                pool.baseDiv += it.baseDiv;
                pool.baseMul += it.baseMul;
                pool.memo += it.memo;
                pool.mul.merge(it.mul);
                pool.div.merge(it.div);
                o.instructions += it.instructions;
                o.l1Accesses += it.l1Accesses;
                o.l1Hits += it.l1Hits;
                if (!it.memoNotSlower && o.error.empty())
                    o.error = "a memoized run took more cycles than its "
                              "baseline";
            }
            if (corrupt && g == 0)
                pool.memo++;
            for (uint64_t v : {pool.base, pool.baseDiv, pool.baseMul,
                               pool.memo})
                fnv.add(v);
            fnv.add(pool.mul);
            fnv.add(pool.div);
            o.core.merge(pool.mul);
            o.core.merge(pool.div);
            o.cyclesBase += pool.base;
            o.cyclesMemo += pool.memo;
            auto hit = [](const MemoStats &s) {
                return s.lookups ? s.hitRatio() : -1.0;
            };
            auto v = appCyclesValues(pool.base, pool.baseDiv, pool.baseMul,
                                     pool.memo, hit(pool.div),
                                     hit(pool.mul));
            o.values.insert(o.values.end(), v.begin(), v.end());
        }
        o.digest = fnv.h;
        o.accesses = o.core.lookups + o.core.trivialBypassed;
        o.distinctTraces = traces_.size();
        return o;
    }

    std::string
    reference(const Outcome &r) override
    {
        if (seed_ != 0)
            return "";
        if (!ref_) {
            const size_t n_sc = scenarios_.size();
            auto per = memo::exec::sweep(
                apps_.size() * n_sc,
                [&](size_t i) {
                    const Scenario &sc = scenarios_[i % n_sc];
                    memo::check::AppCycles c = memo::check::measureAppCycles(
                        *apps_[i / n_sc], sc.lat, sc.memoMul, sc.memoDiv);
                    return appCyclesValues(c.totalCycles, c.fpDivCycles,
                                           c.fpMulCycles, c.memoTotalCycles,
                                           c.hitRatioFpDiv, c.hitRatioFpMul);
                },
                jobs_);
            ref_.emplace();
            for (const auto &v : per)
                ref_->insert(ref_->end(), v.begin(), v.end());
        }
        return compareValues(*ref_, r.values,
                             "cycles vs check::measureAppCycles");
    }

  private:
    uint64_t seed_;
    unsigned jobs_;
    std::vector<const memo::MmKernel *> apps_;
    std::vector<Scenario> scenarios_;
    std::vector<NamedImage> images_;
    std::vector<TracePtr> traces_; //!< app-major, image-minor
    std::optional<std::vector<double>> ref_;
};

// ---------------------------------------------------------------------
// The whole report, as `memo-report --write` regenerates it.

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** First byte where @p got departs from @p want, as a message, or "". */
std::string
firstDifference(const std::string &want, const std::string &got,
                const std::string &what)
{
    if (want == got)
        return "";
    size_t i = 0;
    while (i < want.size() && i < got.size() && want[i] == got[i])
        i++;
    return what + " differs from the committed file at byte " +
           std::to_string(i);
}

/**
 * Cold report regeneration. Untraced reps run buildExperimentsReport()
 * and both renderers and compare the bytes with the committed files;
 * traced reps run the ten public measurement stages one by one instead,
 * so each gets its own span, and produce no report to check. The Small
 * plan skips measuring and checks the committed bytes themselves.
 */
class PaperReport : public Workload
{
  public:
    PaperReport(Scale scale, std::string root)
        : full_(scale == Scale::Full), root_(std::move(root))
    {
    }

    Outcome
    setup(const std::string &phase) override
    {
        {
            LayerSpan span(phase, "images");
            memo::standardImages();
        }
        md_ = readFile(root_ + "/EXPERIMENTS.md");
        html_ = readFile(root_ + "/docs/REPORT.html");
        return Outcome{};
    }

    Outcome
    rep(const std::string &phase, bool corrupt) override
    {
        memo::exec::TraceCache::instance().clear();
        if (full_ && memo::prof::Profiler::global().enabled())
            return stages(phase);

        Outcome o;
        std::string md = md_, html = html_;
        if (full_) {
            uint64_t t0 = memo::prof::nowNs();
            memo::obs::Report report = memo::check::buildExperimentsReport();
            uint64_t t1 = memo::prof::nowNs();
            md = memo::obs::renderMarkdown(report);
            html = memo::obs::renderHtml(report);
            uint64_t t2 = memo::prof::nowNs();
            o.extra["check.report_build_s"] = (t1 - t0) * 1e-9;
            o.extra["obs.render_s"] = (t2 - t1) * 1e-9;
            countWork(o);
        }
        if (corrupt)
            md[md.size() / 2] ^= 1;
        o.error = firstDifference(md_, md, "EXPERIMENTS.md");
        if (o.error.empty())
            o.error = firstDifference(html_, html, "docs/REPORT.html");
        Fnv fnv;
        fnv.add(md);
        fnv.add(html);
        o.digest = fnv.h;
        return o;
    }

    std::string reference(const Outcome &) override { return ""; }

  private:
    /** Table accesses and instructions the report's measurements fed. */
    static void
    countWork(Outcome &o)
    {
        memo::obs::Snapshot snap =
            memo::obs::StatsRegistry::global().snapshot();
        for (const auto &[name, v] : snap.counters) {
            if (name.starts_with("core.table.") && name.ends_with(".lookups"))
                o.accesses += v;
        }
        o.instructions = snap.counter("analysis.replay.instructions") +
                         snap.counter("sim.cpu.instructions");
    }

    Outcome
    stages(const std::string &phase)
    {
        namespace check = memo::check;
        const std::vector<memo::MemoConfig> fig3 = sweepPlan(Scale::Full).cfgs;
        std::vector<memo::MemoConfig> fig4;
        for (unsigned ways : check::fig4Ways()) {
            memo::MemoConfig c;
            c.ways = ways; // 32 entries, the default
            fig4.push_back(c);
        }
        const std::pair<const char *, std::function<void()>> list[] = {
            {"sci_perfect",
             [] { check::measureSciSuite(memo::perfectWorkloads()); }},
            {"sci_spec", [] { check::measureSciSuite(memo::specWorkloads()); }},
            {"mm_suite", [] { check::measureMmSuite(); }},
            {"entropy", [] { check::measureEntropy(); }},
            {"tag_modes", [] { check::measureTagModes(); }},
            {"speedup_div",
             [] { check::measureSpeedups(check::SpeedupUnit::FpDiv); }},
            {"speedup_mul",
             [] { check::measureSpeedups(check::SpeedupUnit::FpMul); }},
            {"speedup_both",
             [] { check::measureSpeedups(check::SpeedupUnit::Both); }},
            {"bands_fig3", [&] { check::measureSweepBands(fig3); }},
            {"bands_fig4", [&] { check::measureSweepBands(fig4); }},
        };
        memo::obs::StatsRegistry::global().reset();
        auto &cache = memo::exec::TraceCache::instance();
        Outcome o;
        o.timingOnly = true;
        for (const auto &[name, run] : list) {
            uint64_t before = cache.generated();
            {
                LayerSpan span(phase, std::string("check.") + name);
                run();
            }
            o.extra[std::string("check.") + name + ".generated"] =
                static_cast<double>(cache.generated() - before);
        }
        countWork(o);
        return o;
    }

    bool full_;
    std::string root_;
    std::string md_, html_; //!< the committed EXPERIMENTS.md / REPORT.html
};

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig3_sweep", "speedup_cycles", "capped_fig3", "paper_report"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, unsigned jobs,
             Scale scale, const std::string &root)
{
    if (name == "fig3_sweep")
        return std::make_unique<Fig3Sweep>(seed, jobs, scale);
    if (name == "speedup_cycles")
        return std::make_unique<SpeedupCycles>(seed, jobs, scale);
    if (name == "capped_fig3")
        return std::make_unique<CappedFig3>(seed, jobs, scale);
    if (name == "paper_report")
        return std::make_unique<PaperReport>(scale, root);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace ledger
