/**
 * @file
 * memo-bench: registered host-performance scenarios and the
 * continuous-benchmarking regression gate.
 *
 * Where memo-report reproduces the paper's *simulated* numbers,
 * memo-bench times the *host*: how long the reproduction
 * machinery itself takes to replay a trace, run a table sweep, push a
 * fuzz batch and render a report. Each registered scenario runs
 * warmup + N timed repetitions; the robust summary (median and MAD)
 * is appended as one BenchRecord — with a full environment manifest —
 * to a schema-versioned history file (BENCH_history.json by default).
 *
 * `--check` turns the run into a gate: each scenario's fresh median
 * is compared against its most recent history record and the run
 * exits non-zero when any scenario exceeds
 * baseline + max(rel_slack * baseline, mad_k * MAD, abs floor);
 * see prof/bench_record.hh for the rationale. `--inject-slowdown X`
 * multiplies the measured samples by X before gating — the gate's
 * self-test — and suppresses the history append so synthetic numbers
 * never pollute the baseline.
 *
 * `--profile-trace FILE` enables the host profiler for the run and
 * writes every scenario repetition as Chrome-trace spans; the
 * trace-replay scenario additionally hooks an obs::EventTracer onto
 * its MEMO-TABLEs so simulated table events land on the same
 * timeline.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "check/fuzz.hh"
#include "core/bank.hh"
#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "img/generate.hh"
#include "obs/phase.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "obs/tracer.hh"
#include "prof/bench_record.hh"
#include "prof/prof.hh"
#include "sim/cpu.hh"
#include "workloads/workload.hh"

using namespace memo;

namespace
{

struct Options
{
    std::string suite = "quick";   //!< quick | full
    std::string only;              //!< run a single scenario
    std::string history = "BENCH_history.json";
    std::string profileTrace;      //!< Chrome-trace output path
    unsigned reps = 5;
    unsigned warmup = 1;
    unsigned jobs = 0;             //!< 0 = ThreadPool::defaultJobs()
    bool check = false;
    bool list = false;
    bool noAppend = false;
    double injectSlowdown = 0.0;   //!< 0 = off
    prof::GateOptions gate;
    /** --assert-ratio: require stat(num)/stat(den) >= min. */
    std::string ratioNum;
    std::string ratioDen;
    double ratioMin = 0.0;
    /**
     * --ratio-stat: how the asserted ratio is computed.
     * "median" (default) compares the scenarios' median wall times —
     * right for decisive margins. "min" compares min-of-reps, robust
     * when noise is one-sided (preemption only adds time). "paired"
     * takes the median of per-repetition ratios — the repetitions
     * interleave den/num, so host drift (frequency scaling, noisy
     * neighbors) cancels pair by pair; this is the estimator tight
     * margins like phase_overhead_gate's 3% need to hold on a busy
     * host.
     */
    std::string ratioStat = "median";
};

/** Shared state a scenario body can read; set up by the driver. */
struct BenchContext
{
    unsigned jobs = 1;
    obs::EventTracer *tracer = nullptr; //!< non-null under --profile-trace
    /** Per-rep scenario metrics, folded into BenchRecord::extra. */
    std::map<std::string, double> extra;
};

/**
 * One registered scenario: make() runs the untimed setup and returns
 * the body the driver times. Setup cost (trace generation, image
 * synthesis) is deliberately excluded so the gate watches steady-state
 * throughput, not first-touch warmup.
 */
struct Scenario
{
    std::string name;
    std::string description;
    bool quick; //!< in the quick suite (full runs everything)
    std::function<std::function<void(BenchContext &)>(BenchContext &)>
        make;
};

/** Hook @p tracer onto every table of @p bank (memo-sim's op list). */
void
hookTracer(MemoBank &bank, obs::EventTracer *tracer)
{
    if (!tracer)
        return;
    for (Operation op : {Operation::IntMul, Operation::FpMul,
                         Operation::FpDiv, Operation::FpSqrt,
                         Operation::FpLog, Operation::FpSin,
                         Operation::FpCos, Operation::FpExp})
        if (MemoTable *table = bank.table(op))
            table->setHooks(tracer);
}

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> all = { // NOLINT(memo-CONC-003)
        {"trace_replay",
         "batched memo-table replay of one cached kernel trace", true,
         [](BenchContext &) {
             auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                              imageByName("chroms"), 64);
             return [trace](BenchContext &ctx) {
                 MemoBank bank = MemoBank::standard(MemoConfig{});
                 hookTracer(bank, ctx.tracer);
                 replayMemo(*trace, bank);
                 ctx.extra["items"] =
                     static_cast<double>(trace->size());
             };
         }},
        // The phase-overhead pair: identical 8-replay bodies, one
        // bare and one with a PhaseScope attached at the default
        // window. A single replay of the standard trace takes ~2 ms,
        // which is too small to gate a 3% margin against scheduler
        // noise; the 8x loop puts the medians in a range where the
        // phase_overhead_gate ratio is stable. Both are ratio-only
        // scenarios (never in a suite), so the loop does not skew any
        // history baseline.
        {"trace_replay_phase_off",
         "8x batched replay, no telemetry (the overhead gate's "
         "denominator)", false,
         [](BenchContext &) {
             auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                              imageByName("chroms"), 64);
             return [trace](BenchContext &ctx) {
                 for (int i = 0; i < 8; i++) {
                     MemoBank bank = MemoBank::standard(MemoConfig{});
                     hookTracer(bank, ctx.tracer);
                     replayMemo(*trace, bank);
                 }
                 ctx.extra["items"] =
                     static_cast<double>(8 * trace->size());
             };
         }},
        {"trace_replay_phase",
         "8x batched replay with memo-scope phase telemetry attached "
         "at the default window (the overhead gate's numerator)",
         false,
         [](BenchContext &) {
             auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                              imageByName("chroms"), 64);
             return [trace](BenchContext &ctx) {
                 size_t rows = 0;
                 for (int i = 0; i < 8; i++) {
                     MemoBank bank = MemoBank::standard(MemoConfig{});
                     hookTracer(bank, ctx.tracer);
                     obs::PhaseScope phases(bank, 2048, true);
                     replayMemo(*trace, bank);
                     phases.finalize();
                     for (const obs::PhaseProfile &p :
                          phases.profiles())
                         rows += p.rows.size();
                 }
                 ctx.extra["items"] =
                     static_cast<double>(8 * trace->size());
                 ctx.extra["phaseRows"] = static_cast<double>(rows);
             };
         }},
        {"cpu_replay",
         "memoized CpuModel replay of one cached kernel trace", true,
         [](BenchContext &) {
             auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                              imageByName("chroms"), 64);
             return [trace](BenchContext &ctx) {
                 MemoBank bank = MemoBank::standard(MemoConfig{});
                 hookTracer(bank, ctx.tracer);
                 CpuModel cpu;
                 SimResult r = cpu.run(*trace, &bank);
                 ctx.extra["items"] =
                     static_cast<double>(trace->size());
                 ctx.extra["cycles"] =
                     static_cast<double>(r.totalCycles);
             };
         }},
        {"memo_sweep",
         "parallel table-geometry sweep over one Figure 3 kernel", true,
         [](BenchContext &ctx) {
             std::vector<MemoConfig> cfgs;
             for (unsigned entries : {8u, 32u, 128u, 512u}) {
                 MemoConfig cfg;
                 cfg.entries = entries;
                 cfgs.push_back(cfg);
             }
             // Warm the shared trace cache so the timed body measures
             // sweep execution, not generation.
             measureMmKernelConfigs(mmKernelByName(sweepKernelNames()[0]),
                                    cfgs, 64, ctx.jobs);
             return [cfgs](BenchContext &c) {
                 auto hits = measureMmKernelConfigs(
                     mmKernelByName(sweepKernelNames()[0]), cfgs, 64,
                     c.jobs);
                 if (hits.size() != cfgs.size())
                     throw std::runtime_error("sweep size mismatch");
                 c.extra["items"] = static_cast<double>(cfgs.size());
             };
         }},
        {"fuzz_batch",
         "seeded differential fuzz campaign (150 cases)", true,
         [](BenchContext &) {
             return [](BenchContext &ctx) {
                 check::FuzzOptions o;
                 o.seed = 1;
                 o.iters = 150;
                 o.streamLen = 128;
                 if (auto f = check::fuzz(o, nullptr))
                     throw std::runtime_error(
                         "fuzz failure during benchmark: " + f->what);
                 ctx.extra["items"] = static_cast<double>(o.iters);
             };
         }},
        {"report_render",
         "Markdown + HTML rendering of a synthetic report", true,
         [](BenchContext &) {
             auto report = std::make_shared<obs::Report>();
             report->title = "memo-bench synthetic report";
             report->preamble = {"Render-throughput fixture."};
             for (int s = 0; s < 8; s++) {
                 obs::ReportSection sec;
                 sec.title = "Section " + std::to_string(s);
                 sec.anchor = "sec-" + std::to_string(s);
                 sec.prose = {"Synthetic prose paragraph for render "
                              "timing; contents are immaterial."};
                 obs::ReportTable t;
                 t.header = {"kernel", "intMul", "fpMul", "fpDiv",
                             "cycles", "speedup"};
                 for (int r = 0; r < 24; r++)
                     t.rows.push_back({"k" + std::to_string(r), "0.81",
                                       "0.64", "0.77", "123456789",
                                       "1.21"});
                 sec.tables.push_back(t);
                 sec.claims.push_back(
                     {"synthetic claim " + std::to_string(s), true,
                      "fixture"});
                 report->sections.push_back(std::move(sec));
             }
             return [report](BenchContext &ctx) {
                 size_t bytes = obs::renderMarkdown(*report).size() +
                                obs::renderHtml(*report).size();
                 if (bytes == 0)
                     throw std::runtime_error("empty render");
                 ctx.extra["items"] =
                     static_cast<double>(report->sections.size());
                 ctx.extra["renderedBytes"] =
                     static_cast<double>(bytes);
             };
         }},
        {"trace_gen",
         "uncached trace generation for one (kernel, image) pair",
         false,
         [](BenchContext &) {
             return [](BenchContext &ctx) {
                 Trace t = traceMmKernel(mmKernelByName("vcost"),
                                         imageByName("chroms").image,
                                         64);
                 ctx.extra["items"] = static_cast<double>(t.size());
             };
         }},
        {"trace_spill_replay",
         "streamed replay of one spilled (chunk-encoded, on-disk) "
         "kernel trace", true,
         [](BenchContext &) {
             // Spill-pressure scenario: setup encodes the trace into
             // a chunk store under the system temp dir (dedup makes
             // reruns cheap); the timed body decodes the operand
             // chunks and replays them through probeBlock without
             // ever materializing the trace (docs/TRACE_FORMAT.md).
             auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                              imageByName("chroms"), 64);
             auto store = std::make_shared<SpillStore>(
                 (std::filesystem::temp_directory_path() /
                  "memo-bench-spill")
                     .string());
             const std::string key = "vcost|chroms|64";
             SpillStore::WriteStats ws = store->write(key, *trace);
             double encoded = static_cast<double>(ws.bytesWritten +
                                                  ws.bytesShared);
             double raw = static_cast<double>(trace->memoryBytes());
             size_t records = trace->size();
             return [store, key, encoded, raw,
                     records](BenchContext &ctx) {
                 MemoBank bank = MemoBank::standard(MemoConfig{});
                 hookTracer(bank, ctx.tracer);
                 replayMemoStreamed(*store, key, bank);
                 ctx.extra["items"] = static_cast<double>(records);
                 ctx.extra["encodedBytes"] = encoded;
                 ctx.extra["rawBytes"] = raw;
             };
         }},
    };
    return all;
}

void
usage(std::ostream &os)
{
    os << "usage: memo-bench [options]\n"
          "  --suite quick|full     scenario set (default quick)\n"
          "  --scenario NAME        run one scenario only\n"
          "  --list                 list scenarios and exit\n"
          "  --reps N               timed repetitions (default 5)\n"
          "  --warmup N             discarded repetitions (default 1)\n"
          "  --jobs N               worker threads (default auto)\n"
          "  --trace-cache-budget MB  resident budget of the shared\n"
          "                         trace cache (default 768)\n"
          "  --trace-spill-dir DIR  spill evicted traces to a chunk\n"
          "                         store under DIR; admitted back on\n"
          "                         miss (docs/TRACE_FORMAT.md)\n"
          "  --history FILE         BENCH_history.json path\n"
          "  --check                gate against the history; exit 1\n"
          "                         on a regression\n"
          "  --inject-slowdown X    multiply samples by X (gate\n"
          "                         self-test; implies no append)\n"
          "  --assert-ratio A B R   also run scenarios A and B and\n"
          "                         fail unless stat(A)/stat(B)\n"
          "                         >= R (throughput-ratio gate)\n"
          "  --ratio-stat S         how the ratio is computed: median\n"
          "                         (default), min (robust one-sided\n"
          "                         noise), or paired (median of\n"
          "                         per-rep den/num ratios over the\n"
          "                         interleaved reps; host drift\n"
          "                         cancels pair by pair — use for\n"
          "                         tight margins)\n"
          "  --no-append            measure/gate without writing\n"
          "  --rel-slack F          gate band fraction (default 0.30)\n"
          "  --mad-k F              gate MAD multiple (default 5.0)\n"
          "  --abs-floor SEC        gate band floor (default 0.005)\n"
          "  --profile-trace FILE   enable host profiling; write a\n"
          "                         Chrome trace of the run\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            throw std::runtime_error(std::string(argv[i]) +
                                     " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--suite")
            opt.suite = need(i);
        else if (a == "--scenario")
            opt.only = need(i);
        else if (a == "--list")
            opt.list = true;
        else if (a == "--reps")
            opt.reps = static_cast<unsigned>(std::atoi(need(i)));
        else if (a == "--warmup")
            opt.warmup = static_cast<unsigned>(std::atoi(need(i)));
        else if (a == "--jobs")
            opt.jobs = static_cast<unsigned>(std::atoi(need(i)));
        else if (a == "--trace-cache-budget") {
            long long mb = std::atoll(need(i));
            if (mb <= 0)
                throw std::runtime_error(
                    "--trace-cache-budget needs a positive MB count");
            exec::TraceCache::instance().setBudgetBytes(
                static_cast<size_t>(mb) * 1024 * 1024);
        } else if (a == "--trace-spill-dir")
            exec::TraceCache::instance().setSpillDir(need(i));
        else if (a == "--history")
            opt.history = need(i);
        else if (a == "--check")
            opt.check = true;
        else if (a == "--inject-slowdown")
            opt.injectSlowdown = std::atof(need(i));
        else if (a == "--assert-ratio") {
            opt.ratioNum = need(i);
            opt.ratioDen = need(i);
            opt.ratioMin = std::atof(need(i));
            if (opt.ratioMin <= 0)
                throw std::runtime_error(
                    "--assert-ratio minimum must be positive");
        }
        else if (a == "--ratio-stat") {
            opt.ratioStat = need(i);
            if (opt.ratioStat != "median" && opt.ratioStat != "min" &&
                opt.ratioStat != "paired")
                throw std::runtime_error(
                    "--ratio-stat must be median, min or paired");
        }
        else if (a == "--no-append")
            opt.noAppend = true;
        else if (a == "--rel-slack")
            opt.gate.relSlack = std::atof(need(i));
        else if (a == "--mad-k")
            opt.gate.madK = std::atof(need(i));
        else if (a == "--abs-floor")
            opt.gate.absFloorSec = std::atof(need(i));
        else if (a == "--profile-trace")
            opt.profileTrace = need(i);
        else if (a == "--help" || a == "-h") {
            usage(std::cout);
            return false;
        } else {
            throw std::runtime_error("unknown option " + a);
        }
    }
    if (opt.suite != "quick" && opt.suite != "full")
        throw std::runtime_error("--suite must be quick or full");
    if (opt.reps == 0)
        throw std::runtime_error("--reps must be positive");
    return true;
}

/** Run @p sc and return its summarized record. */
prof::BenchRecord
runScenario(const Scenario &sc, const Options &opt,
            obs::EventTracer *tracer)
{
    BenchContext ctx;
    ctx.jobs = opt.jobs ? opt.jobs : exec::ThreadPool::defaultJobs();
    ctx.tracer = tracer;

    auto body = sc.make(ctx);

    for (unsigned i = 0; i < opt.warmup; i++) {
        prof::ProfSpan span(sc.name + ":warmup");
        body(ctx);
    }

    prof::BenchRecord r;
    r.scenario = sc.name;
    r.suite = opt.suite;
    r.reps = opt.reps;
    r.warmup = opt.warmup;
    r.jobs = ctx.jobs;
    for (unsigned i = 0; i < opt.reps; i++) {
        uint64_t t0 = prof::nowNs();
        {
            prof::ProfSpan span(sc.name);
            body(ctx);
        }
        double sec =
            static_cast<double>(prof::nowNs() - t0) / 1e9;
        if (opt.injectSlowdown > 0)
            sec *= opt.injectSlowdown;
        r.samplesSec.push_back(sec);
    }
    prof::summarizeSamples(r);
    r.extra = ctx.extra;
    if (r.medianSec > 0) {
        auto it = ctx.extra.find("items");
        if (it != ctx.extra.end())
            r.extra["itemsPerSec"] = it->second / r.medianSec;
        it = ctx.extra.find("cycles");
        if (it != ctx.extra.end())
            r.extra["cyclesPerSec"] = it->second / r.medianSec;
    }
    r.env = prof::EnvManifest::collect();
    return r;
}

/**
 * Run the --assert-ratio pair with interleaved repetitions: the
 * denominator and numerator bodies alternate rep by rep, so slow
 * host drift (frequency scaling, a noisy neighbor) lands on both
 * scenarios equally instead of on whichever happened to run second.
 * For a decisive margin that is a nicety; for phase_overhead_gate's
 * few percent it is the difference between a gate that holds and one
 * that flakes.
 */
std::pair<prof::BenchRecord, prof::BenchRecord>
runScenarioPair(const Scenario &num, const Scenario &den,
                const Options &opt, obs::EventTracer *tracer)
{
    BenchContext ctx_num, ctx_den;
    ctx_num.jobs = opt.jobs ? opt.jobs : exec::ThreadPool::defaultJobs();
    ctx_den.jobs = ctx_num.jobs;
    ctx_num.tracer = tracer;
    ctx_den.tracer = tracer;

    auto body_num = num.make(ctx_num);
    auto body_den = den.make(ctx_den);

    for (unsigned i = 0; i < opt.warmup; i++) {
        {
            prof::ProfSpan span(den.name + ":warmup");
            body_den(ctx_den);
        }
        {
            prof::ProfSpan span(num.name + ":warmup");
            body_num(ctx_num);
        }
    }

    auto init = [&](const Scenario &sc) {
        prof::BenchRecord r;
        r.scenario = sc.name;
        r.suite = opt.suite;
        r.reps = opt.reps;
        r.warmup = opt.warmup;
        r.jobs = ctx_num.jobs;
        return r;
    };
    prof::BenchRecord r_num = init(num), r_den = init(den);

    auto timeOne = [&](const Scenario &sc,
                       std::function<void(BenchContext &)> &body,
                       BenchContext &ctx, prof::BenchRecord &r) {
        uint64_t t0 = prof::nowNs();
        {
            prof::ProfSpan span(sc.name);
            body(ctx);
        }
        double sec = static_cast<double>(prof::nowNs() - t0) / 1e9;
        if (opt.injectSlowdown > 0)
            sec *= opt.injectSlowdown;
        r.samplesSec.push_back(sec);
    };
    for (unsigned i = 0; i < opt.reps; i++) {
        timeOne(den, body_den, ctx_den, r_den);
        timeOne(num, body_num, ctx_num, r_num);
    }

    auto finish = [&](prof::BenchRecord &r, BenchContext &ctx) {
        prof::summarizeSamples(r);
        r.extra = ctx.extra;
        if (r.medianSec > 0) {
            auto it = ctx.extra.find("items");
            if (it != ctx.extra.end())
                r.extra["itemsPerSec"] = it->second / r.medianSec;
            it = ctx.extra.find("cycles");
            if (it != ctx.extra.end())
                r.extra["cyclesPerSec"] = it->second / r.medianSec;
        }
        r.env = prof::EnvManifest::collect();
    };
    finish(r_num, ctx_num);
    finish(r_den, ctx_den);
    return {std::move(r_num), std::move(r_den)};
}

void
printGateTable(const std::vector<prof::GateRow> &rows, std::ostream &os)
{
    os << "\nscenario          baseline   current  threshold    delta  "
          "verdict\n";
    char line[160];
    for (const auto &g : rows) {
        if (g.isNew) {
            std::snprintf(line, sizeof line,
                          "%-16s %9s %9.4fs %10s %8s  NEW\n",
                          g.scenario.c_str(), "-", g.currentSec, "-",
                          "-");
        } else {
            std::snprintf(line, sizeof line,
                          "%-16s %8.4fs %8.4fs %9.4fs %+7.1f%%  %s\n",
                          g.scenario.c_str(), g.baselineSec,
                          g.currentSec, g.thresholdSec, g.deltaPct,
                          g.regressed ? "REGRESSED" : "ok");
        }
        os << line;
    }
}

int
run(const Options &opt)
{
    if (opt.list) {
        for (const auto &sc : scenarios())
            std::cout << sc.name << (sc.quick ? "  [quick] " : "  [full]  ")
                      << sc.description << "\n";
        return 0;
    }

    std::optional<obs::EventTracer> tracer;
    if (!opt.profileTrace.empty()) {
        prof::Profiler::global().setEnabled(true);
        tracer.emplace(size_t{1} << 16, 64);
    }

    auto printSummary = [](const prof::BenchRecord &r) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "  median %.4fs  mad %.4fs  min %.4fs  max %.4fs\n",
                      r.medianSec, r.madSec, r.minSec, r.maxSec);
        std::cout << line;
    };

    std::vector<prof::BenchRecord> current;
    for (const auto &sc : scenarios()) {
        // Scenarios named by --assert-ratio always run — but in the
        // interleaved paired pass below, never in this loop, even
        // when the suite or --scenario filter selects them.
        bool forRatio = !opt.ratioNum.empty() &&
                        (sc.name == opt.ratioNum ||
                         sc.name == opt.ratioDen);
        if (forRatio)
            continue;
        if (!opt.only.empty() && sc.name != opt.only)
            continue;
        if (opt.only.empty() && opt.suite == "quick" && !sc.quick)
            continue;
        std::cout << "[memo-bench] " << sc.name << " (" << opt.reps
                  << " reps, " << opt.warmup << " warmup)...\n";
        prof::BenchRecord r = runScenario(sc, opt,
                                          tracer ? &*tracer : nullptr);
        printSummary(r);
        current.push_back(std::move(r));
    }
    if (!opt.ratioNum.empty()) {
        auto find = [](const std::string &name) -> const Scenario & {
            for (const auto &sc : scenarios())
                if (sc.name == name)
                    return sc;
            throw std::runtime_error(
                "--assert-ratio: unknown scenario " + name);
        };
        const Scenario &num = find(opt.ratioNum);
        const Scenario &den = find(opt.ratioDen);
        std::cout << "[memo-bench] " << den.name << " / " << num.name
                  << " interleaved (" << opt.reps << " reps, "
                  << opt.warmup << " warmup)...\n";
        auto pair = runScenarioPair(num, den, opt,
                                    tracer ? &*tracer : nullptr);
        printSummary(pair.second);
        printSummary(pair.first);
        current.push_back(std::move(pair.second));
        current.push_back(std::move(pair.first));
    }
    if (current.empty())
        throw std::runtime_error(
            opt.only.empty() ? "no scenarios selected"
                             : "unknown scenario " + opt.only);

    std::vector<prof::BenchRecord> history;
    std::string error;
    if (!prof::readBenchFile(opt.history, history, error))
        throw std::runtime_error(opt.history + ": " + error);

    bool regressed = false;
    if (opt.check) {
        auto rows = prof::gateCompare(history, current, opt.gate);
        printGateTable(rows, std::cout);
        for (const auto &g : rows)
            regressed = regressed || g.regressed;
    }

    // Synthetic (injected) samples never enter the baseline.
    if (!opt.noAppend && opt.injectSlowdown <= 0) {
        history.insert(history.end(), current.begin(), current.end());
        if (!prof::writeBenchFile(opt.history, history))
            throw std::runtime_error("cannot write " + opt.history);
        std::cout << "\nappended " << current.size() << " record"
                  << (current.size() == 1 ? "" : "s") << " to "
                  << opt.history << " (" << history.size()
                  << " total)\n";
    }

    if (tracer) {
        // Fold the run's host counters into the global registry and
        // export spans + table events onto one timeline.
        auto &reg = obs::StatsRegistry::global();
        prof::publishProcessStats(reg, prof::Profiler::global());
        exec::ThreadPool::shared().publishUtilization(reg);
        exec::TraceCache::instance().publishStats(reg);
        std::ofstream os(opt.profileTrace,
                         std::ios::binary | std::ios::trunc);
        if (!os)
            throw std::runtime_error("cannot write " +
                                     opt.profileTrace);
        prof::Profiler::global().exportChromeTrace(os, &*tracer);
        std::cout << "wrote " << opt.profileTrace << " ("
                  << prof::Profiler::global().size() << " host spans, "
                  << tracer->recorded() << " table events)\n";
    }

    // Throughput-ratio gate: the numerator scenario's wall time must
    // be at least ratioMin times the denominator's, under the
    // estimator --ratio-stat picks (see Options::ratioStat).
    bool ratioFailed = false;
    if (!opt.ratioNum.empty()) {
        auto recordOf =
            [&](const std::string &name) -> const prof::BenchRecord & {
            for (const auto &r : current)
                if (r.scenario == name)
                    return r;
            throw std::runtime_error("--assert-ratio: scenario " +
                                     name + " not measured");
        };
        const prof::BenchRecord &rn = recordOf(opt.ratioNum);
        const prof::BenchRecord &rd = recordOf(opt.ratioDen);
        double ratio = 0.0;
        if (opt.ratioStat == "paired") {
            // Median of per-repetition ratios: repetition k of both
            // scenarios ran back to back, so whatever the host was
            // doing that instant divides out.
            std::vector<double> ratios;
            size_t m = std::min(rn.samplesSec.size(),
                                rd.samplesSec.size());
            for (size_t k = 0; k < m; k++)
                if (rd.samplesSec[k] > 0)
                    ratios.push_back(rn.samplesSec[k] /
                                     rd.samplesSec[k]);
            std::sort(ratios.begin(), ratios.end());
            size_t c = ratios.size();
            if (c > 0)
                ratio = c % 2 ? ratios[c / 2]
                              : (ratios[c / 2 - 1] + ratios[c / 2]) /
                                    2.0;
        } else {
            double num = opt.ratioStat == "min" ? rn.minSec
                                                : rn.medianSec;
            double den = opt.ratioStat == "min" ? rd.minSec
                                                : rd.medianSec;
            ratio = den > 0 ? num / den : 0.0;
        }
        char line[200];
        std::snprintf(line, sizeof line,
                      "\nratio %s / %s = %.2fx (required >= %.2fx)\n",
                      opt.ratioNum.c_str(), opt.ratioDen.c_str(), ratio,
                      opt.ratioMin);
        std::cout << line;
        ratioFailed = ratio < opt.ratioMin;
    }

    if (opt.check && regressed) {
        std::cout << "\nFAIL: performance regression detected\n";
        return 1;
    }
    if (ratioFailed) {
        std::cout << "FAIL: throughput ratio below required minimum\n";
        return 1;
    }
    if (opt.check)
        std::cout << "\nOK: no performance regression\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        Options opt;
        if (!parseArgs(argc, argv, opt))
            return 0;
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "memo-bench: " << e.what() << "\n";
        usage(std::cerr);
        return 2;
    }
}
