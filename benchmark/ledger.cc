/**
 * @file
 * memo-ledger: the benchmark of record.
 *
 *   memo-ledger run --workload NAME --seed N --seconds S
 *                   [--trace FILE] [--out FILE] [--root DIR]
 *   memo-ledger selftest [--root DIR]
 *
 * `run` measures one workload in this process. It sets the workload up
 * several times (setup_s is their median), then runs timed reps from
 * one closed-loop client, each rep starting when the previous one
 * ends, until the next rep would overrun --seconds. Every rep's output
 * is checked; the run prints every metric by name with its unit and,
 * as its last line, one JSON object with the keys correct, attempted,
 * failed and metrics. It exits 0 only when every rep passed.
 *
 * With --trace the run spends half its time untraced (the end-to-end
 * numbers and the baseline for the tracing overhead) and half with the
 * global profiler on; it then prints per-layer busy and self time,
 * counts, the unexplained remainder and the tracing overhead, reports
 * the per-layer metrics in its last line, and writes the spans to FILE
 * as a Chrome trace.
 *
 * `selftest` checks the seeded inputs and proves every workload's
 * check is live: each workload runs a small plan once clean (must
 * pass) and once with one rep's output corrupted (must fail).
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "inputs.hh"
#include "prof/bench_record.hh"
#include "prof/prof.hh"
#include "workloads.hh"

namespace
{

using namespace ledger;
namespace prof = memo::prof;

/**
 * A run sets up at least minSetups times, and until its set-ups took
 * minSetupSeconds in all (at most maxSetups times), so a cheap set-up
 * is sampled more often; setup_s is their median.
 */
constexpr int minSetups = 3;
constexpr int maxSetups = 10;
constexpr double minSetupSeconds = 3.0;

/** A metric as printed: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Trace-cache counters, for per-phase deltas. */
struct CacheCounters
{
    uint64_t generated = 0, hits = 0, misses = 0, evictions = 0,
             admits = 0, spills = 0, spillErrors = 0, spilledBytes = 0,
             sharedBytes = 0;

    static CacheCounters
    now()
    {
        const auto &c = memo::exec::TraceCache::instance();
        return {c.generated(), c.hits(),         c.misses(),
                c.evictions(), c.admits(),       c.spills(),
                c.spillErrors(), c.spilledBytes(), c.sharedBytes()};
    }

    CacheCounters
    operator-(const CacheCounters &o) const
    {
        return {generated - o.generated, hits - o.hits,
                misses - o.misses,       evictions - o.evictions,
                admits - o.admits,       spills - o.spills,
                spillErrors - o.spillErrors,
                spilledBytes - o.spilledBytes,
                sharedBytes - o.sharedBytes};
    }
};

/** The shared pool's accounting summed over workers. */
struct PoolCounters
{
    uint64_t tasks = 0, busyNs = 0, idleNs = 0;

    static PoolCounters
    now()
    {
        PoolCounters p;
        for (const auto &w : memo::exec::ThreadPool::shared().workerStats()) {
            p.tasks += w.tasks;
            p.busyNs += w.busyNs;
            p.idleNs += w.idleNs;
        }
        return p;
    }
};

/** One measured set-up or rep. */
struct Phase
{
    std::string name; //!< "<workload>/setup<k>" or "<workload>/rep<k>"
    bool traced = false;
    double wallSec = 0;
    Outcome out;
    std::string failure; //!< why the rep failed; "" = passed
    CacheCounters cache;
    uint64_t residentBytes = 0; //!< cache-resident bytes at the end
    PoolCounters pool;
};

/** How a run is conducted. */
struct RunPlan
{
    int setups = minSetups;
    double setupSeconds = minSetupSeconds;
    double seconds = 0;
    bool traced = false;
    bool corruptFirstRep = false;
};

/** Everything a run measured. */
struct RunResult
{
    std::vector<Phase> setups, reps;
    std::string fatal; //!< a set-up failed; nothing was timed
    double peakRssMb = 0;
    std::vector<prof::Span> spans;

    int
    failed() const
    {
        if (!fatal.empty())
            return 1;
        return static_cast<int>(std::count_if(
            reps.begin(), reps.end(),
            [](const Phase &p) { return !p.failure.empty(); }));
    }

    int
    attempted() const
    {
        return fatal.empty() ? static_cast<int>(reps.size()) : 1;
    }

    bool correct() const { return failed() == 0; }
};

Phase
measure(Workload &w, const std::string &name, bool is_rep, bool corrupt)
{
    // Hand memory freed by earlier phases back to the system, so the
    // peak RSS is that of one set-up or rep, not of the allocator's
    // retention across the run's repetitions.
    malloc_trim(0);
    Phase p;
    p.name = name;
    p.traced = prof::Profiler::global().enabled();
    CacheCounters c0 = CacheCounters::now();
    PoolCounters p0 = PoolCounters::now();
    uint64_t t0 = prof::nowNs();
    try {
        p.out = is_rep ? w.rep(name, corrupt) : w.setup(name);
        p.failure = p.out.error;
    } catch (const std::exception &e) {
        p.failure = std::string("exception: ") + e.what();
    }
    p.wallSec = (prof::nowNs() - t0) * 1e-9;
    p.cache = CacheCounters::now() - c0;
    p.residentBytes = memo::exec::TraceCache::instance().residentBytes();
    PoolCounters p1 = PoolCounters::now();
    p.pool = {p1.tasks - p0.tasks, p1.busyNs - p0.busyNs,
              p1.idleNs - p0.idleNs};
    return p;
}

/**
 * Timed reps from one closed-loop client until the next rep, at the
 * median rep time so far, would end after @p seconds. At least one.
 */
void
repLoop(Workload &w, const std::string &workload, double seconds,
        bool corrupt_first, RunResult &r)
{
    const uint64_t start = prof::nowNs();
    std::vector<double> walls; // this loop's reps only
    for (;;) {
        int k = static_cast<int>(r.reps.size()) + 1;
        r.reps.push_back(measure(w, workload + "/rep" + std::to_string(k),
                                 true, corrupt_first && k == 1));
        // The peak of set-up plus one rep: later reps repeat the same
        // work, and a max over a varying number of them would only add
        // the extremes of scheduling to the figure.
        if (k == 1)
            r.peakRssMb = prof::peakRssBytes() / 1e6;
        if (r.reps.back().failure.starts_with("exception"))
            return; // the workload's state is unknown; stop here
        walls.push_back(r.reps.back().wallSec);
        double elapsed = (prof::nowNs() - start) * 1e-9;
        if (elapsed + prof::medianOf(walls) > seconds)
            return;
    }
}

/**
 * Set up fresh instances of the workload, each from an empty trace
 * cache (the previous instance is torn down untimed), then run the reps
 * on the last one.
 */
RunResult
runWorkload(const std::function<std::unique_ptr<Workload>()> &make,
            const std::string &workload, const RunPlan &plan)
{
    RunResult r;
    auto &profiler = prof::Profiler::global();
    std::unique_ptr<Workload> wp;
    double setup_total = 0;
    for (int k = 1; k <= plan.setups ||
                    (setup_total < plan.setupSeconds && k <= maxSetups);
         k++) {
        wp.reset();
        memo::exec::TraceCache::instance().clear();
        wp = make();
        profiler.setEnabled(plan.traced);
        r.setups.push_back(measure(
            *wp, workload + "/setup" + std::to_string(k), false, false));
        profiler.setEnabled(false);
        setup_total += r.setups.back().wallSec;
        if (!r.setups.back().failure.empty()) {
            r.fatal = "set-up failed: " + r.setups.back().failure;
            return r;
        }
    }
    Workload &w = *wp;
    repLoop(w, workload, plan.traced ? plan.seconds / 2 : plan.seconds,
            plan.corruptFirstRep, r);
    if (plan.traced && r.reps.back().failure.empty()) {
        profiler.setEnabled(true);
        repLoop(w, workload, plan.seconds / 2, false, r);
        profiler.setEnabled(false);
        r.spans = profiler.snapshot();
    }

    // Every checked rep must agree with the first one bit for bit and
    // with the workload's independent reference (computed now, after
    // the timed reps, so it perturbs neither their time nor the RSS).
    const Phase *first = nullptr;
    for (Phase &p : r.reps) {
        if (!p.failure.empty() || p.out.timingOnly)
            continue;
        if (!first)
            first = &p;
        if (p.out.digest != first->out.digest)
            p.failure = "result_digest differs from " + first->name + "'s";
        else if (std::string e = w.reference(p.out); !e.empty())
            p.failure = e;
    }
    return r;
}

// ---------------------------------------------------------------------
// Metrics.

std::vector<Metric>
endToEnd(const RunResult &r)
{
    prof::BenchRecord rec;
    std::vector<double> setup, maccess, minst;
    for (const Phase &p : r.setups)
        setup.push_back(p.wallSec);
    for (const Phase &p : r.reps) {
        if (p.traced)
            continue;
        rec.samplesSec.push_back(p.wallSec);
        maccess.push_back(p.out.accesses / 1e6 / p.wallSec);
        minst.push_back(p.out.instructions / 1e6 / p.wallSec);
    }
    prof::summarizeSamples(rec);
    return {
        {"wall_s", rec.medianSec, "s"},
        {"setup_s", prof::medianOf(setup), "s"},
        {"peak_rss_mb", r.peakRssMb, "MB"},
        {"table_maccess_per_s", prof::medianOf(maccess), "M/s"},
        {"sim_minst_per_s", prof::medianOf(minst), "M/s"},
    };
}

/** Busy and self time of one layer within one phase. */
struct LayerTime
{
    double busy = 0, self = 0;
    unsigned spans = 0;
};

/** Layer path -> time, for each phase ("<workload>/<phase>"). */
using PhaseLayers = std::map<std::string, std::map<std::string, LayerTime>>;

/** Length of the union of [t0, t1) intervals. */
uint64_t
unionLength(std::vector<std::pair<uint64_t, uint64_t>> v)
{
    std::sort(v.begin(), v.end());
    uint64_t total = 0, end = 0;
    for (auto [a, b] : v) {
        a = std::max(a, end);
        if (b > a) {
            total += b - a;
            end = b;
        }
    }
    return total;
}

/**
 * Group spans named "<workload>/<phase>/<layer path>" by phase and
 * layer. A span's children are the spans of layer "<its layer>/<x>"
 * that lie within it: on its own thread when one of its spans there
 * contains them, else (work fanned out to pool workers) on any thread.
 * Self time is the span's duration minus the union its children cover.
 */
PhaseLayers
layerTimes(const std::vector<prof::Span> &spans)
{
    struct S
    {
        std::string layer;
        uint64_t t0, t1;
        uint32_t tid;
    };
    std::map<std::string, std::vector<S>> by_phase;
    for (const prof::Span &s : spans) {
        size_t a = s.name.find('/');
        size_t b = a == std::string::npos ? a : s.name.find('/', a + 1);
        if (b == std::string::npos)
            continue;
        by_phase[s.name.substr(0, b)].push_back(
            {s.name.substr(b + 1), s.t0Ns, s.t1Ns, s.tid});
    }

    PhaseLayers out;
    for (auto &[phase, v] : by_phase) {
        std::map<std::string, std::vector<size_t>> by_layer;
        for (size_t i = 0; i < v.size(); i++)
            by_layer[v[i].layer].push_back(i);
        std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
            v.size());
        for (const S &c : v) {
            size_t cut = c.layer.rfind('/');
            if (cut == std::string::npos)
                continue;
            auto it = by_layer.find(c.layer.substr(0, cut));
            if (it == by_layer.end())
                continue;
            bool nested = false;
            for (size_t p : it->second) {
                if (v[p].tid == c.tid && v[p].t0 <= c.t0 &&
                    c.t1 <= v[p].t1) {
                    kids[p].push_back({c.t0, c.t1});
                    nested = true;
                    break;
                }
            }
            for (size_t p : it->second) {
                if (nested)
                    break;
                uint64_t a = std::max(v[p].t0, c.t0);
                uint64_t b = std::min(v[p].t1, c.t1);
                if (a < b)
                    kids[p].push_back({a, b});
            }
        }
        for (size_t i = 0; i < v.size(); i++) {
            uint64_t dur = v[i].t1 - v[i].t0;
            LayerTime &lt = out[phase][v[i].layer];
            lt.busy += dur * 1e-9;
            lt.self += (dur - std::min(dur, unionLength(kids[i]))) * 1e-9;
            lt.spans++;
        }
    }
    return out;
}

/** Summed busy time of the layers whose last path component is @p leaf. */
double
leafBusy(const std::map<std::string, LayerTime> &layers,
         const std::string &leaf)
{
    double sum = 0;
    for (const auto &[layer, t] : layers) {
        size_t cut = layer.rfind('/');
        if (layer.substr(cut == std::string::npos ? 0 : cut + 1) == leaf)
            sum += t.busy;
    }
    return sum;
}

/** Summed busy time of a phase's top-level layers. */
double
topLevelBusy(const std::map<std::string, LayerTime> &layers)
{
    double sum = 0;
    for (const auto &[layer, t] : layers)
        if (layer.find('/') == std::string::npos)
            sum += t.busy;
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * The per-layer metrics of a traced run: medians over its traced
 * set-ups (img, record) and traced reps (everything else).
 */
std::vector<Metric>
perLayer(const RunResult &r, const PhaseLayers &layers, unsigned jobs,
         double untraced_wall)
{
    static const std::map<std::string, LayerTime> none;
    auto layersOf = [&](const Phase &p) -> const auto & {
        auto it = layers.find(p.name);
        return it == layers.end() ? none : it->second;
    };

    std::vector<double> img, record_s, records, record_rate;
    for (const Phase &p : r.setups)
        img.push_back(leafBusy(layersOf(p), "images"));
    std::vector<const Phase *> traced_reps;
    for (const Phase &p : r.reps)
        if (p.traced)
            traced_reps.push_back(&p);
    std::vector<const Phase *> phases(traced_reps);
    for (const Phase &p : r.setups)
        phases.push_back(&p);
    std::vector<double> columns_rate;
    for (const Phase *p : phases) {
        double rec = leafBusy(layersOf(*p), "record");
        if (rec > 0) {
            record_s.push_back(rec);
            records.push_back(static_cast<double>(p->out.records));
            record_rate.push_back(p->out.records / 1e6 / rec);
        }
        double col = leafBusy(layersOf(*p), "columns");
        if (col > 0)
            columns_rate.push_back(p->out.columnRecords / 1e6 / col);
    }

    std::vector<Metric> out = {
        {"img.generate_s", prof::medianOf(img), "s"},
        {"trace.record_s", prof::medianOf(record_s), "s"},
        {"trace.records", prof::medianOf(records), "count"},
        {"trace.record_mrec_per_s", prof::medianOf(record_rate), "M/s"},
        {"trace.columns_mrec_per_s", prof::medianOf(columns_rate), "M/s"},
    };
    // Per-rep metrics, in first-added order; each reports its median.
    std::map<std::string, std::vector<double>> samples;
    auto add = [&](const char *name, const char *unit, double v) {
        if (!samples.count(name))
            out.push_back({name, 0, unit});
        samples[name].push_back(v);
    };
    for (const Phase *p : traced_reps) {
        const auto &l = layersOf(*p);
        const Outcome &o = p->out;
        const CacheCounters &c = p->cache;
        double pool_busy = p->pool.busyNs * 1e-9;
        double replay = leafBusy(l, "replay"), cpu = leafBusy(l, "cpu");
        add("exec.trace_cache.generated", "count", c.generated);
        add("exec.trace_cache.hits", "count", c.hits);
        add("exec.trace_cache.evictions", "count", c.evictions);
        add("exec.trace_cache.admits", "count", c.admits);
        add("exec.trace_cache.spills", "count", c.spills);
        add("exec.trace_cache.spill_errors", "count", c.spillErrors);
        add("exec.trace_cache.spilled_mb", "MB", c.spilledBytes / 1e6);
        add("exec.trace_cache.shared_mb", "MB", c.sharedBytes / 1e6);
        add("exec.trace_cache.resident_mb", "MB", p->residentBytes / 1e6);
        add("exec.trace_cache.hit_ratio", "ratio",
            ratio(c.hits, c.hits + c.misses));
        add("exec.trace_cache.regen_factor", "ratio",
            ratio(c.generated, o.distinctTraces));
        add("exec.trace_cache.get_share", "ratio",
            ratio(leafBusy(l, "get"), pool_busy));
        add("exec.pool.busy_s", "s", pool_busy);
        add("exec.pool.idle_s", "s", p->pool.idleNs * 1e-9);
        add("exec.pool.tasks", "count", p->pool.tasks);
        add("exec.parallel_eff", "ratio",
            ratio(pool_busy, p->wallSec * jobs));
        add("analysis.replay_maccess_per_busy_s", "M/s",
            ratio(o.accesses / 1e6, replay));
        add("analysis.replay_share", "ratio", ratio(replay, pool_busy));
        add("core.lookups", "count", o.core.lookups);
        add("core.hits", "count", o.core.allHits());
        add("core.trivial_bypassed", "count", o.core.trivialBypassed);
        add("core.hit_ratio", "ratio",
            ratio(o.core.allHits(), o.core.lookups));
        add("sim.instructions", "count", o.instructions);
        add("sim.minst_per_busy_s", "M/s",
            ratio(o.instructions / 1e6, cpu));
        add("sim.share", "ratio", ratio(cpu, pool_busy));
        add("sim.cycles_base", "count", o.cyclesBase);
        add("sim.cycles_memo", "count", o.cyclesMemo);
        add("sim.l1_miss_ratio", "ratio",
            ratio(o.l1Accesses - o.l1Hits, o.l1Accesses));
        add("ledger.remainder_share", "ratio",
            ratio(p->wallSec - topLevelBusy(l), untraced_wall));
        add("ledger.trace_overhead_share", "ratio",
            ratio(p->wallSec - untraced_wall, untraced_wall));
    }
    for (Metric &m : out)
        if (samples.count(m.name))
            m.value = prof::medianOf(samples[m.name]);
    return out;
}

// ---------------------------------------------------------------------
// Output.

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonMetrics(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); i++)
        s += (i ? ", " : "") + jsonString(ms[i].name) + ": {\"value\": " +
             num(ms[i].value) + ", \"unit\": " + jsonString(ms[i].unit) +
             "}";
    return s + "}";
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The digest every checked rep agreed on (0 when none was checked). */
uint64_t
runDigest(const RunResult &r)
{
    for (const Phase &p : r.reps)
        if (!p.out.timingOnly)
            return p.out.digest;
    return 0;
}

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** The traced run's breakdown: per-layer busy/self, counts, overhead. */
void
printBreakdown(const RunResult &r, const PhaseLayers &layers,
               double untraced_wall)
{
    for (bool setup : {true, false}) {
        std::map<std::string, std::vector<LayerTime>> per;
        std::vector<double> remainder, walls;
        bool same_work = true; // traced reps repeat the untraced ones
        for (const Phase &p : setup ? r.setups : r.reps) {
            if (!p.traced)
                continue;
            auto it = layers.find(p.name);
            if (it == layers.end())
                continue;
            same_work = same_work && !p.out.timingOnly;
            for (const auto &[layer, t] : it->second)
                per[layer].push_back(t);
            walls.push_back(p.wallSec);
            remainder.push_back(p.wallSec - topLevelBusy(it->second));
        }
        if (walls.empty())
            continue;
        std::printf("%s layers (median per traced %s, %zu samples)\n",
                    setup ? "set-up" : "rep", setup ? "set-up" : "rep",
                    walls.size());
        std::printf("  %-32s %12s %12s %8s\n", "layer", "busy_s", "self_s",
                    "spans");
        for (const auto &[layer, ts] : per) {
            std::vector<double> busy, self, n;
            for (const LayerTime &t : ts) {
                busy.push_back(t.busy);
                self.push_back(t.self);
                n.push_back(t.spans);
            }
            std::printf("  %-32s %12.6f %12.6f %8.0f\n", layer.c_str(),
                        prof::medianOf(busy), prof::medianOf(self),
                        prof::medianOf(n));
        }
        double wall = prof::medianOf(walls);
        double rem = prof::medianOf(remainder);
        std::printf("  %-32s %12.6f\n", "traced wall", wall);
        std::printf("  %-32s %12.6f  (%.2f%% of the %s wall)\n",
                    "unexplained remainder", rem,
                    100 * ratio(rem, setup ? wall : untraced_wall),
                    setup ? "traced" : "untraced");
        if (!setup && same_work)
            std::printf("  %-32s %12.6f  (%.2f%% of untraced wall_s "
                        "%.6f)\n",
                        "tracing overhead", wall - untraced_wall,
                        100 * ratio(wall - untraced_wall, untraced_wall),
                        untraced_wall);
        else if (!setup)
            std::printf("  %-32s %12s  (traced reps run the measurement "
                        "stages only)\n",
                        "tracing overhead", "n/a");
    }
    std::map<std::string, std::vector<double>> extra;
    for (const Phase &p : r.reps)
        for (const auto &[k, v] : p.out.extra)
            extra[k].push_back(v);
    if (!extra.empty()) {
        std::printf("workload numbers (median over reps)\n");
        for (const auto &[k, v] : extra)
            std::printf("  %-36s %16.6g\n", k.c_str(), prof::medianOf(v));
    }
}

std::string
resultJson(const std::string &workload, uint64_t seed, double seconds,
           unsigned jobs, const RunResult &r,
           const std::vector<Metric> &e2e,
           const std::vector<Metric> &layer_metrics)
{
    prof::EnvManifest env = prof::EnvManifest::collect();
    std::ostringstream os;
    auto walls = [&](const std::vector<Phase> &v, bool traced) {
        std::string s = "[";
        for (const Phase &p : v)
            if (p.traced == traced)
                s += (s.size() > 1 ? ", " : "") + num(p.wallSec);
        return s + "]";
    };
    os << "{\n  \"tool\": \"memo-ledger\",\n  \"version\": 1,\n"
       << "  \"workload\": " << jsonString(workload) << ",\n"
       << "  \"seed\": " << seed << ",\n  \"seconds\": " << num(seconds)
       << ",\n  \"jobs\": " << jobs << ",\n"
       << "  \"env\": {\"gitSha\": " << jsonString(env.gitSha)
       << ", \"compiler\": " << jsonString(env.compiler)
       << ", \"flags\": " << jsonString(env.flags)
       << ", \"cpu\": " << jsonString(env.cpu)
       << ", \"hwThreads\": " << env.hwThreads << "},\n"
       << "  \"correct\": " << (r.correct() ? "true" : "false")
       << ",\n  \"attempted\": " << r.attempted()
       << ",\n  \"failed\": " << r.failed() << ",\n"
       << "  \"result_digest\": " << jsonString(hex(runDigest(r))) << ",\n"
       << "  \"setup_s\": " << walls(r.setups, false) << ",\n"
       << "  \"rep_wall_s\": " << walls(r.reps, false) << ",\n"
       << "  \"traced_rep_wall_s\": " << walls(r.reps, true) << ",\n"
       << "  \"metrics\": " << jsonMetrics(e2e) << ",\n"
       << "  \"per_layer\": " << jsonMetrics(layer_metrics) << ",\n"
       << "  \"errors\": [";
    std::vector<std::string> errors;
    if (!r.fatal.empty())
        errors.push_back(r.fatal);
    for (const Phase &p : r.reps)
        if (!p.failure.empty())
            errors.push_back(p.name + ": " + p.failure);
    for (size_t i = 0; i < errors.size(); i++)
        os << (i ? ", " : "") << jsonString(errors[i]);
    os << "]\n}\n";
    return os.str();
}

unsigned
benchJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

int
usage(int code)
{
    std::ostream &os = code ? std::cerr : std::cout;
    os << "usage: memo-ledger run --workload NAME --seed N --seconds S\n"
          "                       [--trace FILE] [--out FILE] [--root DIR]\n"
          "       memo-ledger selftest [--root DIR]\n"
          "workloads:";
    for (const std::string &n : workloadNames())
        os << " " << n;
    os << "\n";
    return code;
}

int
cmdRun(const std::string &workload, uint64_t seed, double seconds,
       const std::string &trace_file, const std::string &out_file,
       const std::string &root)
{
    const unsigned jobs = benchJobs();
    RunPlan plan;
    plan.seconds = seconds;
    plan.traced = !trace_file.empty();
    RunResult r = runWorkload(
        [&] { return makeWorkload(workload, seed, jobs, Scale::Full, root); },
        workload, plan);

    std::printf("memo-ledger %s seed=%llu jobs=%u set-ups=%zu reps=%zu\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                jobs, r.setups.size(), r.reps.size());
    std::vector<Metric> e2e = endToEnd(r), layer_metrics;
    printMetrics("end-to-end (untraced)", e2e);
    const double untraced_wall = e2e[0].value;
    if (plan.traced) {
        PhaseLayers layers = layerTimes(r.spans);
        printBreakdown(r, layers, untraced_wall);
        layer_metrics = perLayer(r, layers, jobs, untraced_wall);
        printMetrics("per-layer (traced)", layer_metrics);
        std::ofstream os(trace_file);
        prof::Profiler::global().exportChromeTrace(os);
        if (!os) {
            std::fprintf(stderr, "memo-ledger: cannot write %s\n",
                         trace_file.c_str());
            return 2;
        }
        std::printf("chrome trace: %s (%zu spans)\n", trace_file.c_str(),
                    r.spans.size());
    } else {
        for (const Phase &p : r.reps)
            for (const auto &[k, v] : p.out.extra)
                std::printf("  %-36s %16.6g s (rep %s)\n", k.c_str(), v,
                            p.name.c_str());
    }
    std::printf("result_digest %s\n", hex(runDigest(r)).c_str());
    if (!r.fatal.empty())
        std::printf("FAILED %s\n", r.fatal.c_str());
    for (const Phase &p : r.reps)
        if (!p.failure.empty())
            std::printf("FAILED %s: %s\n", p.name.c_str(),
                        p.failure.c_str());

    if (!out_file.empty()) {
        std::ofstream os(out_file);
        os << resultJson(workload, seed, seconds, jobs, r, e2e,
                         layer_metrics);
        if (!os) {
            std::fprintf(stderr, "memo-ledger: cannot write %s\n",
                         out_file.c_str());
            return 2;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                r.correct() ? "true" : "false", r.attempted(), r.failed(),
                jsonMetrics(plan.traced ? layer_metrics : e2e).c_str());
    return r.correct() ? 0 : 1;
}

int
cmdSelftest(const std::string &root)
{
    bool ok = true;
    std::string e = checkInputs();
    std::printf("%-16s %-9s %s\n", "inputs", e.empty() ? "ok" : "FAILED",
                e.empty() ? "seed 0 == standardImages(); seed names distinct"
                          : e.c_str());
    ok = ok && e.empty();

    const unsigned jobs = benchJobs();
    for (const std::string &name : workloadNames()) {
        for (bool corrupt : {false, true}) {
            RunPlan plan;
            plan.setups = 1;
            plan.setupSeconds = 0;
            plan.seconds = 0;
            plan.corruptFirstRep = corrupt;
            RunResult r = runWorkload(
                [&] {
                    return makeWorkload(name, 0, jobs, Scale::Small, root);
                },
                name, plan);
            int exit_code = r.correct() ? 0 : 1;
            bool caught = r.failed() > 0 && exit_code != 0;
            bool pass = corrupt ? caught : !caught;
            ok = ok && pass;
            std::string why = !r.fatal.empty() ? r.fatal
                              : r.reps.empty() ? ""
                                               : r.reps[0].failure;
            std::printf("%-16s %-9s %s fail_frac=%d/%d exit=%d%s%s\n",
                        name.c_str(), pass ? "ok" : "FAILED",
                        corrupt ? "corrupted" : "clean    ", r.failed(),
                        r.attempted(), exit_code, why.empty() ? "" : ": ",
                        why.c_str());
        }
    }
    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Every sweep gets `jobs` explicitly; the library's own sweeps (the
    // references, paper_report) read MEMO_JOBS, which must be set before
    // the shared pool is first created.
    setenv("MEMO_JOBS", std::to_string(benchJobs()).c_str(), 1);

    if (argc < 2)
        return usage(2);
    std::string cmd = argv[1];
    std::string workload, trace_file, out_file, root = ".";
    long long seed = -1;
    double seconds = -1;
    for (int i = 2; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(2);
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoll(v.c_str(), &end, 10);
            if (v.empty() || *end || seed < 0)
                return usage(2);
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(seconds >= 0))
                return usage(2);
        } else if (a == "--trace") {
            trace_file = v;
        } else if (a == "--out") {
            out_file = v;
        } else if (a == "--root") {
            root = v;
        } else {
            return usage(2);
        }
    }
    try {
        if (cmd == "selftest")
            return cmdSelftest(root);
        if (cmd != "run" || seed < 0 || seconds < 0 ||
            std::find(workloadNames().begin(), workloadNames().end(),
                      workload) == workloadNames().end())
            return usage(2);
        return cmdRun(workload, static_cast<uint64_t>(seed), seconds,
                      trace_file, out_file, root);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memo-ledger: %s\n", e.what());
        return 1;
    }
}
