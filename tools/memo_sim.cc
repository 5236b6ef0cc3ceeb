/**
 * @file
 * memo-sim: command-line front end to the whole framework.
 *
 * Runs any bundled workload (or a pipeline of Khoros kernels) on any
 * bundled or user-supplied image, under a fully configurable
 * MEMO-TABLE and processor, and reports hit ratios, cycle counts,
 * cache behaviour, instruction mix and reuse-distance analytics.
 * Traces can be saved to a trace store (docs/TRACE_FORMAT.md) and
 * replayed from it.
 *
 * Examples:
 *   memo-sim --workload vkmeans --image mandrill
 *   memo-sim --workload hydro2d --entries 16 --ways 2 --csv
 *   memo-sim --pipeline vgef,venhance --image my.pgm --preset slow
 *   memo-sim --workload vcost --image fractal --save-trace traces
 *   memo-sim --load-trace traces --reuse --opmix
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/reuse.hh"
#include "arith/fp.hh"
#include "analysis/table.hh"
#include "core/cli_args.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "exec/trace_cache.hh"
#include "img/generate.hh"
#include "img/pnm.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "obs/tracer.hh"
#include "prof/heartbeat.hh"
#include "prof/prof.hh"
#include "sim/cpu.hh"
#include "trace/file_io.hh"
#include "trace/spill.hh"
#include "workloads/workload.hh"

using namespace memo;
using memo::cli::parseChoice;
using memo::cli::parseCount;

namespace
{

/** The trace store key that --save-trace writes and --load-trace
 *  reads. */
const std::string kSavedKey = "memo-sim";

struct Options
{
    std::string workload;
    std::vector<std::string> pipeline;
    std::string image = "mandrill";
    CpuPreset preset = CpuPreset::FastFpu;
    std::string saveTrace; //!< trace store directory to save into
    std::string loadTrace; //!< trace store directory to load from
    std::string statsFile;
    std::string traceEvents;   //!< Chrome-trace JSON output path
    std::string profileTrace;  //!< host-span Chrome-trace output path
    uint64_t samplePeriod = 1; //!< record every Nth table event
    uint64_t phaseWindow = 0;  //!< phase window in accesses (0 = off)
    std::string phaseOut = "phases.json"; //!< phase artifact path
    bool phasePerSet = false;  //!< per-set occupancy in phases.json
    bool progress = false;     //!< stderr heartbeat during replays
    MemoConfig table;
    int crop = 128;
    unsigned jobs = 0; //!< 0 = hardware_concurrency (default)
    bool csv = false;
    bool opmix = false;
    bool reuse = false;
    bool hot = false;
    bool noMemo = false;
};

void
usage()
{
    std::printf(
        "memo-sim — MEMO-TABLE trace simulator\n\n"
        "workload selection:\n"
        "  --workload NAME     MM kernel or scientific analogue\n"
        "  --pipeline A,B,C    run several MM kernels back to back\n"
        "  --image NAME|FILE   bundled image or .pgm/.ppm path\n"
        "  --crop N            centre-crop inputs to NxN (default 128)\n"
        "  --list              list workloads and images\n\n"
        "MEMO-TABLE configuration:\n"
        "  --entries N --ways N (default 32/4)\n"
        "  --infinite          unbounded fully associative table\n"
        "  --tag full|mant     tag mode (Table 10)\n"
        "  --trivial all|non|intgr  trivial policy (Table 9)\n"
        "  --repl lru|fifo|random   replacement policy\n"
        "  --hash xor|add      fp index hash\n"
        "  --no-memo           baseline run only\n\n"
        "processor:\n"
        "  --preset fast|slow|pentiumpro|alpha21164|r10000|ppc604e|\n"
        "           ultrasparc2|pa8000\n\n"
        "execution:\n"
        "  --jobs N            worker threads for the model runs\n"
        "                      (default: hardware concurrency; 1 = "
        "serial)\n"
        "  --trace-cache-budget MB  resident-bytes budget of the\n"
        "                      shared trace cache (default 768, or\n"
        "                      MEMO_TRACE_CACHE_MB)\n"
        "  --trace-spill-dir DIR    spill evicted traces to a chunk\n"
        "                      store under DIR and admit them back on\n"
        "                      miss (or MEMO_TRACE_SPILL_DIR); see\n"
        "                      docs/TRACE_FORMAT.md\n\n"
        "output & traces:\n"
        "  --csv               machine-readable output\n"
        "  --opmix             print the instruction-class mix\n"
        "  --reuse             reuse-distance analytics per unit\n"
        "  --hot               hottest operand pairs per unit\n"
        "  --save-trace DIR    save the trace into the trace store\n"
        "                      DIR (created if needed)\n"
        "  --load-trace DIR    replay the trace saved in DIR\n"
        "  --stats FILE        write key=value statistics\n"
        "  --trace-events FILE write MEMO-TABLE events (hit/miss/\n"
        "                      insert/evict/abort) as Chrome trace\n"
        "                      JSON (load in about://tracing)\n"
        "  --sample N          record every Nth table event\n"
        "                      (default 1; counts stay exact)\n"
        "  --profile FILE      enable host profiling and write host\n"
        "                      spans (plus table events when\n"
        "                      --trace-events is active) as one\n"
        "                      Chrome-trace file\n"
        "  --phase-window N    collect phase-resolved (windowed)\n"
        "                      table metrics every N accesses; writes\n"
        "                      the versioned phases.json artifact and\n"
        "                      merges counter tracks into\n"
        "                      --trace-events output\n"
        "  --phase-out FILE    phase artifact path (default\n"
        "                      phases.json)\n"
        "  --phase-per-set     include per-set occupancy rows in the\n"
        "                      phase artifact (heatmap input)\n"
        "  --progress          stderr heartbeat (rate/ETA) during the\n"
        "                      replays; never touches stdout\n");
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            throw std::runtime_error(std::string("missing value for ") +
                                     argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--workload") {
            opt.workload = need(i);
        } else if (a == "--pipeline") {
            opt.pipeline = splitList(need(i));
        } else if (a == "--image") {
            opt.image = need(i);
        } else if (a == "--crop") {
            opt.crop = parseCount<int>(a, need(i));
        } else if (a == "--entries") {
            opt.table.entries = parseCount<unsigned>(a, need(i));
        } else if (a == "--ways") {
            opt.table.ways = parseCount<unsigned>(a, need(i));
        } else if (a == "--infinite") {
            opt.table.infinite = true;
        } else if (a == "--tag") {
            opt.table.tagMode = parseChoice<TagMode>(
                a, need(i),
                {{"full", TagMode::FullValue},
                 {"mant", TagMode::MantissaOnly}});
        } else if (a == "--trivial") {
            opt.table.trivialMode = parseChoice<TrivialMode>(
                a, need(i),
                {{"all", TrivialMode::CacheAll},
                 {"non", TrivialMode::NonTrivialOnly},
                 {"intgr", TrivialMode::Integrated}});
        } else if (a == "--repl") {
            opt.table.replacement = parseChoice<Replacement>(
                a, need(i),
                {{"lru", Replacement::Lru},
                 {"fifo", Replacement::Fifo},
                 {"random", Replacement::Random}});
        } else if (a == "--hash") {
            opt.table.hashScheme = parseChoice<HashScheme>(
                a, need(i),
                {{"xor", HashScheme::PaperXor},
                 {"add", HashScheme::Additive}});
        } else if (a == "--preset") {
            opt.preset = parseChoice<CpuPreset>(
                a, need(i),
                {{"fast", CpuPreset::FastFpu},
                 {"slow", CpuPreset::SlowFpu},
                 {"pentiumpro", CpuPreset::PentiumPro},
                 {"alpha21164", CpuPreset::Alpha21164},
                 {"r10000", CpuPreset::MipsR10000},
                 {"ppc604e", CpuPreset::Ppc604e},
                 {"ultrasparc2", CpuPreset::UltraSparcII},
                 {"pa8000", CpuPreset::Pa8000}});
        } else if (a == "--jobs") {
            opt.jobs = parseCount<unsigned>(a, need(i));
        } else if (a == "--trace-cache-budget") {
            // MB as u32 keeps the byte count within 64 bits.
            exec::TraceCache::instance().setBudgetBytes(
                size_t{parseCount<uint32_t>(a, need(i))} * 1024 * 1024);
        } else if (a == "--trace-spill-dir") {
            exec::TraceCache::instance().setSpillDir(need(i));
        } else if (a == "--csv") {
            opt.csv = true;
        } else if (a == "--opmix") {
            opt.opmix = true;
        } else if (a == "--reuse") {
            opt.reuse = true;
        } else if (a == "--hot") {
            opt.hot = true;
        } else if (a == "--no-memo") {
            opt.noMemo = true;
        } else if (a == "--save-trace") {
            opt.saveTrace = need(i);
        } else if (a == "--load-trace") {
            opt.loadTrace = need(i);
        } else if (a == "--stats") {
            opt.statsFile = need(i);
        } else if (a == "--trace-events") {
            opt.traceEvents = need(i);
        } else if (a == "--profile") {
            opt.profileTrace = need(i);
        } else if (a == "--progress") {
            opt.progress = true;
        } else if (a == "--sample") {
            opt.samplePeriod = parseCount<uint64_t>(a, need(i));
        } else if (a == "--phase-window") {
            opt.phaseWindow = parseCount<uint64_t>(a, need(i));
        } else if (a == "--phase-out") {
            opt.phaseOut = need(i);
        } else if (a == "--phase-per-set") {
            opt.phasePerSet = true;
        } else if (a == "--list") {
            std::printf("MM kernels:\n ");
            for (const auto &k : mmKernels())
                std::printf(" %s", k.name.c_str());
            std::printf("\nscientific analogues:\n ");
            for (const auto &w : perfectWorkloads())
                std::printf(" %s", w.name.c_str());
            for (const auto &w : specWorkloads())
                std::printf(" %s", w.name.c_str());
            std::printf("\nimages:\n ");
            for (const auto &ni : standardImages())
                std::printf(" %s", ni.name.c_str());
            std::printf("\n");
            std::exit(0);
        } else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            throw std::runtime_error("unknown option: " + a);
        }
    }
    return opt;
}

Image
loadImage(const Options &opt)
{
    if (opt.image.find('.') != std::string::npos &&
        (opt.image.ends_with(".pgm") || opt.image.ends_with(".ppm")))
        return readPnm(opt.image);
    // Bundled images use their Table 8 names; ".rgb" suffixed names
    // contain a dot but are bundled.
    return imageByName(opt.image).image;
}

Trace
buildTrace(const Options &opt)
{
    if (!opt.loadTrace.empty())
        return SpillStore::existing(opt.loadTrace).read(kSavedKey);

    Trace trace;
    Recorder rec(trace);
    if (!opt.pipeline.empty()) {
        Image input = cropForTrace(loadImage(opt), opt.crop);
        for (const auto &name : opt.pipeline)
            mmKernelByName(name).run(rec, input, nullptr);
        return trace;
    }
    if (opt.workload.empty())
        throw std::runtime_error(
            "need --workload, --pipeline or --load-trace "
            "(see --help)");
    // MM kernel first, scientific analogue otherwise.
    for (const auto &k : mmKernels()) {
        if (k.name == opt.workload) {
            Image input = cropForTrace(loadImage(opt), opt.crop);
            k.run(rec, input, nullptr);
            return trace;
        }
    }
    sciWorkloadByName(opt.workload).run(rec);
    return trace;
}

void
printOpMix(const Trace &trace, bool csv)
{
    OpMix mix = trace.mix();
    TextTable t({"class", "count", "fraction"});
    for (unsigned c = 0; c < numInstClasses; c++) {
        InstClass cls = static_cast<InstClass>(c);
        if (mix[cls] == 0)
            continue;
        t.addRow({std::string(instClassName(cls)),
                  TextTable::count(mix[cls]),
                  TextTable::fixed(100.0 * mix.fraction(cls), 1) + "%"});
    }
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
}

void
printHot(const Trace &trace, bool csv)
{
    TextTable t({"unit", "operand a", "operand b", "count"});
    for (Operation op : {Operation::IntMul, Operation::FpMul,
                         Operation::FpDiv}) {
        for (const auto &p : hottestPairs(trace, op, 5)) {
            std::string a_str, b_str;
            if (op == Operation::IntMul) {
                a_str = std::to_string(static_cast<int64_t>(p.aBits));
                b_str = std::to_string(static_cast<int64_t>(p.bBits));
            } else {
                a_str = TextTable::fixed(fpFromBits(p.aBits), 4);
                b_str = TextTable::fixed(fpFromBits(p.bBits), 4);
            }
            t.addRow({std::string(operationName(op)), a_str, b_str,
                      TextTable::count(p.count)});
        }
    }
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
}

void
printReuse(const Trace &trace, bool csv)
{
    TextTable t({"unit", "accesses", "cold", "pred@8", "pred@32",
                 "pred@1024", "entries for 50%"});
    for (Operation op : {Operation::IntMul, Operation::FpMul,
                         Operation::FpDiv}) {
        ReuseProfile prof = reuseProfile(trace, op);
        if (prof.accesses() == 0)
            continue;
        unsigned need = prof.entriesForHitRatio(0.5);
        t.addRow({std::string(operationName(op)),
                  TextTable::count(prof.accesses()),
                  TextTable::count(prof.coldMisses()),
                  TextTable::ratio(prof.predictedHitRatio(8)),
                  TextTable::ratio(prof.predictedHitRatio(32)),
                  TextTable::ratio(prof.predictedHitRatio(1024)),
                  need ? TextTable::count(need) : "> 8192"});
    }
    if (csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
}

/** Write one output file; throws naming the path on failure. */
void
writeArtifact(const std::string &path, const std::string &bytes)
{
    IoStatus st = writeWholeFile(path, bytes);
    if (!st.ok())
        throw std::runtime_error(st.error);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        if (std::string err = opt.table.validate(); !err.empty())
            throw std::runtime_error("table config: " + err);

        auto &profiler = prof::Profiler::global();
        if (!opt.profileTrace.empty())
            profiler.setEnabled(true);

        // The build_trace span is recorded manually: a ProfSpan
        // registers this thread's span buffer (a heap allocation) on
        // construction, and any allocation before the workload runs
        // shifts the workload's own buffers to different intra-line
        // offsets — Recorder::remap preserves those offset bits, so
        // the recorded trace (and its cycle counts) would differ
        // from an unprofiled run. Bare clock reads allocate nothing.
        uint64_t build_t0 = profiler.enabled() ? prof::nowNs() : 0;
        Trace trace = buildTrace(opt);
        if (profiler.enabled())
            profiler.record("build_trace", build_t0, prof::nowNs(),
                            0);
        if (!opt.saveTrace.empty())
            SpillStore(opt.saveTrace).write(kSavedKey, trace);

        if (opt.opmix)
            printOpMix(trace, opt.csv);
        if (opt.reuse)
            printReuse(trace, opt.csv);
        if (opt.hot)
            printHot(trace, opt.csv);

        CpuConfig cpu_cfg;
        cpu_cfg.lat = LatencyConfig::preset(opt.preset);

        // The baseline and memoized replays are independent; run them
        // as two executor jobs (--jobs 1 forces the serial path).
        SimResult base, memo;
        MemoBank bank = MemoBank::standard(opt.table);

        // Optional event tracing: hook the tracer onto every table so
        // the memoized replay streams hit/miss/insert/evict records
        // into the bounded ring (the baseline replay has no tables).
        std::optional<obs::EventTracer> tracer;
        if (!opt.traceEvents.empty() && !opt.noMemo) {
            tracer.emplace(size_t{1} << 16, opt.samplePeriod);
            for (Operation op : {Operation::IntMul, Operation::FpMul,
                                 Operation::FpDiv, Operation::FpSqrt,
                                 Operation::FpLog, Operation::FpSin,
                                 Operation::FpCos, Operation::FpExp})
                if (MemoTable *table = bank.table(op))
                    table->setHooks(&*tracer);
        }

        // Optional phase collection: one accumulator per table; the
        // memoized replay takes probeBlock for an observed table, and
        // lookup()/update() apply the same lazy boundary rule.
        std::optional<obs::PhaseScope> phases;
        if (opt.phaseWindow > 0 && !opt.noMemo)
            phases.emplace(bank, opt.phaseWindow, opt.phasePerSet);

        // Optional stderr heartbeat: the model bumps the counter in
        // coarse batches; the display thread owns all clock reads.
        unsigned replays = opt.noMemo ? 1 : 2;
        std::optional<prof::Heartbeat> heartbeat;
        if (opt.progress) {
            heartbeat.emplace("replay",
                              static_cast<uint64_t>(trace.size()) *
                                  replays);
            cpu_cfg.progress = &heartbeat->counter();
        }
        CpuModel replay_cpu(cpu_cfg);

        exec::parallelFor(
            replays,
            [&](size_t i) {
                prof::ProfSpan span(i == 0 ? "baseline_replay"
                                           : "memo_replay");
                if (i == 0)
                    base = replay_cpu.run(trace);
                else
                    memo = replay_cpu.run(trace, &bank);
            },
            opt.jobs);
        if (heartbeat)
            heartbeat->stop();

        TextTable t({"metric", "value"});
        t.addRow({"instructions", TextTable::count(trace.size())});
        t.addRow({"processor", cpu_cfg.lat.name});
        t.addRow({"baseline cycles",
                  TextTable::count(base.totalCycles)});
        t.addRow({"L1 hit ratio", TextTable::ratio(base.l1.hitRatio())});
        t.addRow({"L2 hit ratio", TextTable::ratio(base.l2.hitRatio())});

        if (!opt.noMemo) {
            t.addRow({"MEMO-TABLE", opt.table.describe()});
            t.addRow({"memoized cycles",
                      TextTable::count(memo.totalCycles)});
            t.addRow({"speedup",
                      TextTable::fixed(
                          static_cast<double>(base.totalCycles) /
                              memo.totalCycles,
                          3)});
            for (Operation op : {Operation::IntMul, Operation::FpMul,
                                 Operation::FpDiv}) {
                auto it = memo.memo.find(op);
                if (it == memo.memo.end() || it->second.lookups == 0)
                    continue;
                t.addRow({std::string(operationName(op)) +
                              " hit ratio",
                          TextTable::ratio(it->second.hitRatio())});
            }
        }
        if (opt.csv)
            t.printCsv(std::cout);
        else
            t.print(std::cout);

        std::vector<obs::PhaseProfile> phase_profiles;
        if (phases) {
            phases->finalize();
            phase_profiles = phases->profiles();
            for (auto &p : phase_profiles)
                p.savedCyclesPerHit =
                    memoSavedPerHit(cpu_cfg.lat, p.op);
            std::string label = !opt.workload.empty() ? opt.workload
                                : !opt.pipeline.empty()
                                    ? opt.pipeline.front()
                                    : "trace";
            writeArtifact(opt.phaseOut,
                          obs::renderPhasesJson(phase_profiles, label));
            size_t windows = 0;
            for (const auto &p : phase_profiles)
                windows += p.rows.size();
            std::cout << "wrote " << opt.phaseOut << " (" << windows
                      << " phase windows of " << opt.phaseWindow
                      << " accesses)\n";
        }

        if (tracer) {
            std::ostringstream events;
            if (phase_profiles.empty()) {
                tracer->exportChromeTrace(events);
            } else {
                // Instant table events and phase counter tracks on
                // one timeline, same conventions as
                // exportChromeTrace.
                events << "{\"traceEvents\": [";
                bool first = true;
                tracer->appendEventsJson(events, first);
                obs::appendCounterEventsJson(events, first,
                                             phase_profiles);
                events << "\n],\n\"metadata\": {\"offered\": "
                       << tracer->offered() << ", \"recorded\": "
                       << tracer->recorded() << ", \"dropped\": "
                       << tracer->dropped() << ", \"samplePeriod\": "
                       << opt.samplePeriod << ", \"phaseWindow\": "
                       << opt.phaseWindow << "}}\n";
            }
            writeArtifact(opt.traceEvents, events.str());
            std::cout << "wrote " << opt.traceEvents << " ("
                      << tracer->recorded() << " of "
                      << tracer->offered()
                      << " table events recorded)\n";
        }

        if (!opt.profileTrace.empty()) {
            // Host spans and (when traced) the simulated table events
            // on one chrome://tracing timeline; the host-side summary
            // goes to stderr so stdout stays identical to an
            // unprofiled run.
            obs::StatsRegistry host_stats;
            prof::publishProcessStats(host_stats, profiler);
            exec::ThreadPool::shared().publishUtilization(host_stats);
            exec::TraceCache::instance().publishStats(host_stats);

            std::ostringstream os;
            profiler.exportChromeTrace(os,
                                       tracer ? &*tracer : nullptr);
            writeArtifact(opt.profileTrace, os.str());
            std::cerr << "memo-sim: wrote " << opt.profileTrace
                      << " (" << profiler.size() << " host spans"
                      << (tracer ? ", +table events" : "") << ")\n"
                      << host_stats.snapshot().serialize();
        }

        if (!opt.statsFile.empty()) {
            std::ostringstream stats;
            stats << "instructions=" << trace.size() << "\n"
                  << "baseline_cycles=" << base.totalCycles << "\n"
                  << "l1_hit_ratio=" << base.l1.hitRatio() << "\n"
                  << "l2_hit_ratio=" << base.l2.hitRatio() << "\n";
            // Reuse the already-computed results instead of replaying
            // the trace a third time.
            if (!opt.noMemo) {
                stats << "memo_cycles=" << memo.totalCycles << "\n"
                      << "speedup="
                      << static_cast<double>(base.totalCycles) /
                             memo.totalCycles
                      << "\n";
                for (Operation op :
                     {Operation::IntMul, Operation::FpMul,
                      Operation::FpDiv}) {
                    auto it = memo.memo.find(op);
                    if (it == memo.memo.end() ||
                        it->second.lookups == 0)
                        continue;
                    std::string key(operationName(op));
                    for (auto &ch : key)
                        if (ch == ' ')
                            ch = '_';
                    stats << key << "_hit_ratio="
                          << it->second.hitRatio() << "\n"
                          << key << "_lookups="
                          << it->second.lookups << "\n";
                }
            }
            writeArtifact(opt.statsFile, stats.str());
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memo-sim: %s\n", e.what());
        return 1;
    }
}
