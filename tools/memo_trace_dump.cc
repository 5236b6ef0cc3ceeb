/**
 * @file
 * memo-trace-dump: inspect trace stores — spill tiers and traces
 * saved by `memo-sim --save-trace` (docs/TRACE_FORMAT.md).
 *
 * Usage:
 *   memo-trace-dump --store DIR
 *       List every trace in a store with record/chunk counts, bytes on
 *       disk and the store-wide dedup ratio.
 *   memo-trace-dump --store DIR --key KEY [count]
 *       Decode one trace and print its class mix and first `count`
 *       records (default 20). `memo-sim --save-trace` saves under the
 *       key `memo-sim`.
 *   memo-trace-dump --store DIR --chunks KEY
 *       Per-column chunk table of one spilled trace: chunk hashes,
 *       element counts and bytes on disk.
 *   memo-trace-dump --store DIR --verify
 *       Fully decode every trace in the store; exit 1 if any chunk or
 *       manifest fails verification (a manifest file that does not
 *       decode included), or if any chunk file is one that no
 *       manifest references (an orphan, reported with its bytes).
 *
 * DIR must already hold a store: reading never creates one.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith/fp.hh"
#include "trace/spill.hh"

using namespace memo;

namespace
{

void
printRecord(size_t index, const Instruction &inst)
{
    std::printf("%8zu  %-9s pc=%08x", index,
                std::string(instClassName(inst.cls)).c_str(), inst.pc);
    switch (inst.cls) {
      case InstClass::Load:
      case InstClass::Store:
        std::printf("  addr=%#llx",
                    static_cast<unsigned long long>(inst.addr));
        break;
      case InstClass::IntMul:
        std::printf("  %lld * %lld = %lld",
                    static_cast<long long>(inst.a),
                    static_cast<long long>(inst.b),
                    static_cast<long long>(inst.result));
        break;
      case InstClass::FpMul:
      case InstClass::FpDiv:
      case InstClass::FpAdd:
        std::printf("  %g %c %g = %g", fpFromBits(inst.a),
                    inst.cls == InstClass::FpDiv   ? '/'
                    : inst.cls == InstClass::FpMul ? '*'
                                                   : '+',
                    fpFromBits(inst.b), fpFromBits(inst.result));
        break;
      case InstClass::FpSqrt:
      case InstClass::FpLog:
      case InstClass::FpSin:
      case InstClass::FpCos:
      case InstClass::FpExp:
        std::printf("  f(%g) = %g", fpFromBits(inst.a),
                    fpFromBits(inst.result));
        break;
      default:
        break;
    }
    std::printf("\n");
}

void
printTrace(const std::string &name, const Trace &trace, size_t count)
{
    std::printf("%s: %zu instructions\n\n", name.c_str(), trace.size());

    OpMix mix = trace.mix();
    std::printf("instruction mix:\n");
    for (unsigned c = 0; c < numInstClasses; c++) {
        InstClass cls = static_cast<InstClass>(c);
        if (mix[cls] == 0)
            continue;
        std::printf("  %-9s %10llu  (%.1f%%)\n",
                    std::string(instClassName(cls)).c_str(),
                    static_cast<unsigned long long>(mix[cls]),
                    100.0 * mix.fraction(cls));
    }

    std::printf("\nfirst %zu records:\n",
                std::min(count, trace.size()));
    for (size_t i = 0; i < trace.size() && i < count; i++)
        printRecord(i, trace[i]);
}

int
listStore(const SpillStore &store)
{
    std::vector<std::string> keys = store.keys();
    std::printf("%s: %zu trace(s)\n\n", store.root().c_str(),
                keys.size());
    std::printf("%-40s %12s %8s %14s\n", "key", "records", "chunks",
                "bytes");
    uint64_t referenced = 0;
    std::vector<uint64_t> seen;
    for (const std::string &key : keys) {
        TraceManifest m = store.manifest(key);
        uint64_t bytes = 0;
        size_t chunks = 0;
        for (const auto &col : m.cols) {
            chunks += col.size();
            for (const ChunkRef &ref : col) {
                bytes += store.chunkFileBytes(ref.hash);
                seen.push_back(ref.hash);
            }
        }
        referenced += bytes;
        std::printf("%-40s %12llu %8zu %14llu\n", key.c_str(),
                    static_cast<unsigned long long>(m.records), chunks,
                    static_cast<unsigned long long>(bytes));
    }
    // Store-wide dedup: bytes the manifests reference vs bytes the
    // content-addressed chunk files actually occupy once.
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    uint64_t unique = 0;
    for (uint64_t h : seen)
        unique += store.chunkFileBytes(h);
    std::printf("\nchunk files: %zu unique, %llu bytes on disk"
                " (%.2fx referenced)\n",
                seen.size(), static_cast<unsigned long long>(unique),
                unique ? static_cast<double>(referenced) /
                             static_cast<double>(unique)
                       : 0.0);
    return 0;
}

int
dumpChunks(const SpillStore &store, const std::string &key)
{
    TraceManifest m = store.manifest(key);
    std::printf("%s: %llu records, %llu operand rows, %llu addresses\n",
                key.c_str(),
                static_cast<unsigned long long>(m.records),
                static_cast<unsigned long long>(m.ops),
                static_cast<unsigned long long>(m.addrs));
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        TraceColumn col = static_cast<TraceColumn>(c);
        const auto &refs = m.col(col);
        std::printf("\ncolumn %-6s (%u-byte elems, %zu chunk%s)\n",
                    traceColumnName(col), traceColumnWidth(col),
                    refs.size(), refs.size() == 1 ? "" : "s");
        for (size_t i = 0; i < refs.size(); i++)
            std::printf("  [%4zu] %016llx  %8u elems  %10llu B\n", i,
                        static_cast<unsigned long long>(refs[i].hash),
                        refs[i].elems,
                        static_cast<unsigned long long>(
                            store.chunkFileBytes(refs[i].hash)));
    }
    return 0;
}

int
verifyStore(const SpillStore &store)
{
    int bad = 0;
    for (const std::string &key : store.keys()) {
        try {
            Trace t = store.read(key);
            std::printf("ok      %-40s %zu records\n", key.c_str(),
                        t.size());
        } catch (const SpillError &e) {
            std::printf("CORRUPT %-40s %s\n", key.c_str(), e.what());
            bad++;
        }
    }
    // keys() lists only manifests that decode; count the others.
    const size_t bad_manifests = store.scanManifests().corrupt;
    if (bad_manifests)
        std::printf("CORRUPT %zu manifest file(s) that do not decode\n",
                    bad_manifests);
    bad += static_cast<int>(bad_manifests);
    if (bad)
        std::fprintf(stderr, "memo-trace-dump: %d corrupt trace(s)\n",
                     bad);

    const std::vector<uint64_t> orphans = store.unreferencedChunks();
    uint64_t orphan_bytes = 0;
    for (uint64_t h : orphans)
        orphan_bytes += store.chunkFileBytes(h);
    if (!orphans.empty()) {
        std::printf("ORPHAN  %zu chunk file(s), %llu B, referenced by "
                    "no manifest\n",
                    orphans.size(),
                    static_cast<unsigned long long>(orphan_bytes));
        std::fprintf(stderr, "memo-trace-dump: %zu orphaned chunk(s)\n",
                     orphans.size());
    }
    return bad || !orphans.empty() ? 1 : 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: memo-trace-dump --store DIR "
        "[--key KEY [count] | --chunks KEY | --verify]\n");
    return 1;
}

/** Parse the record count to print; anything but digits throws. */
size_t
parseRecordCount(const char *arg)
{
    size_t n = 0;
    const char *end = arg + std::strlen(arg);
    auto [p, ec] = std::from_chars(arg, end, n);
    if (ec != std::errc() || p != end)
        throw std::runtime_error(std::string("count: '") + arg +
                                 "' is not a record count");
    return n;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 3 || std::strcmp(argv[1], "--store") != 0)
            return usage();
        SpillStore store = SpillStore::existing(argv[2]);
        if (argc == 3)
            return listStore(store);
        if (std::strcmp(argv[3], "--verify") == 0)
            return verifyStore(store);
        if (argc >= 5 && std::strcmp(argv[3], "--chunks") == 0)
            return dumpChunks(store, argv[4]);
        if (argc >= 5 && std::strcmp(argv[3], "--key") == 0) {
            size_t count = argc > 5 ? parseRecordCount(argv[5]) : 20;
            printTrace(argv[4], store.read(argv[4]), count);
            return 0;
        }
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memo-trace-dump: %s\n", e.what());
        return 1;
    }
}
