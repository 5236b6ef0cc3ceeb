/**
 * @file
 * Tests for the out-of-core trace tier: the chunk codec and its
 * on-disk layout (trace/chunk_codec.hh, pinned field-for-field to
 * docs/TRACE_FORMAT.md), the content-addressed SpillStore
 * (round-trip, dedup, corruption detection, failed writes) and the
 * checked file I/O beneath it (trace/file_io.hh), the TraceCache disk
 * tier (spill-on-evict / admit-on-miss / SpillError fallback), replay
 * of a trace read back from the store, and the capped-memory
 * acceptance run: the full Figure 3 sweep under a 64 MB trace-cache
 * budget must produce canonical JSON bit-identical to the checked-in
 * golden, which was generated with an unlimited budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hh"
#include "check/golden.hh"
#include "core/bank.hh"
#include "exec/trace_cache.hh"
#include "img/generate.hh"
#include "obs/stats.hh"
#include "trace/chunk_codec.hh"
#include "trace/file_io.hh"
#include "trace/recorder.hh"
#include "trace/spill.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

namespace fs = std::filesystem;
using namespace std::string_view_literals;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/** Fresh empty directory under the test temp root. */
std::string
tempRoot(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / ("spill_" + name);
    fs::remove_all(p);
    return p.string();
}

uint16_t
u16At(const std::string &s, size_t off)
{
    return static_cast<uint16_t>(
        static_cast<uint8_t>(s[off]) |
        (static_cast<uint16_t>(static_cast<uint8_t>(s[off + 1])) << 8));
}

uint32_t
u32At(const std::string &s, size_t off)
{
    uint32_t v = 0;
    for (size_t i = 0; i < 4; i++)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(s[off + i]))
             << (8 * i);
    return v;
}

uint64_t
u64At(const std::string &s, size_t off)
{
    uint64_t v = 0;
    for (size_t i = 0; i < 8; i++)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(s[off + i]))
             << (8 * i);
    return v;
}

/**
 * Deterministic trace of @p n records cycling every instruction class
 * with adversarial value bits (zeros, all-ones, NaN payloads, signed
 * zero, denormals) so every byte lane of the stored words varies.
 */
Trace
sampleTrace(size_t n)
{
    constexpr uint64_t edges[] = {
        0,
        1,
        ~0ull,                  // all-ones
        0x7ff8000000000001ull,  // quiet NaN with payload
        0x8000000000000000ull,  // -0.0
        0x0000000000000001ull,  // smallest denormal
        0x3ff0000000000000ull,  // 1.0
        0xdeadbeefcafef00dull,
    };
    constexpr size_t n_edges = sizeof(edges) / sizeof(edges[0]);

    Trace t;
    for (size_t i = 0; i < n; i++) {
        Instruction inst;
        inst.cls = static_cast<InstClass>(i % numInstClasses);
        if (TraceStore::hasOperands(inst.cls)) {
            inst.a = edges[i % n_edges];
            inst.b = edges[(i + 3) % n_edges];
            inst.result = edges[(i + 5) % n_edges];
        } else if (TraceStore::hasAddress(inst.cls)) {
            inst.addr = edges[(i + 1) % n_edges] ^ (i * 8);
        }
        t.push(inst);
    }
    return t;
}

/** IntMul, Load, IntAlu: one operand record and one address record. */
Trace
handTrace()
{
    Trace t;
    Instruction mul;
    mul.cls = InstClass::IntMul;
    mul.a = 2;
    mul.b = 3;
    mul.result = 6;
    t.push(mul);
    Instruction ld;
    ld.cls = InstClass::Load;
    ld.addr = 0x1000;
    t.push(ld);
    Instruction alu;
    alu.cls = InstClass::IntAlu;
    t.push(alu);
    return t;
}

/** decodeChunkInto() into a fresh u64 vector. */
std::vector<uint64_t>
decode64(std::string_view chunk)
{
    std::vector<uint64_t> out;
    decodeChunkInto(chunk, out, "chunk");
    return out;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    size_t i = 0;
    for (auto xi = a.begin(), yi = b.begin(); xi != a.end();
         ++xi, ++yi, ++i) {
        const Instruction x = *xi, y = *yi;
        ASSERT_EQ(x.cls, y.cls) << "record " << i;
        ASSERT_EQ(x.a, y.a) << "record " << i;
        ASSERT_EQ(x.b, y.b) << "record " << i;
        ASSERT_EQ(x.result, y.result) << "record " << i;
        ASSERT_EQ(x.addr, y.addr) << "record " << i;
    }
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

size_t
countChunkFiles(const std::string &root)
{
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(fs::path(root) /
                                                "chunks"))
        n += e.is_regular_file() ? 1 : 0;
    return n;
}

/** One file of a spill store, under the store's root. */
struct StoreFile
{
    const char *path;
    std::string_view bytes;
};

/** Write @p files under @p root. */
void
writeStoreFiles(const std::string &root, std::span<const StoreFile> files)
{
    for (const StoreFile &f : files) {
        fs::path path = fs::path(root) / f.path;
        fs::create_directories(path.parent_path());
        writeFileBytes(path.string(), std::string(f.bytes));
    }
}

/**
 * A spill store as the version-1 encoder (delta + zigzag + LEB128
 * payloads, FNV-1a hashes and file names) wrote handTrace() under key
 * "w1|img|16": one manifest and seven one-chunk columns, byte for byte.
 */
const StoreFile kV1Store[] = {
    {"manifests/d1cd259997043cf5.mtm",
     "\x4d\x54\x52\x4d\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00"
     "\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
     "\x09\x00\x00\x00\x77\x31\x7c\x69\x6d\x67\x7c\x31\x36\x01\x00\x00"
     "\x00\x72\x0c\x13\x76\x18\x25\xdd\xea\x03\x00\x00\x00\x01\x00\x00"
     "\x00\xbf\x30\x66\x93\x18\x12\xb4\x1e\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x45\xbb\x01\x86\x4c\xbf\x63\xaf\x01\x00\x00\x00\x01\x00\x00"
     "\x00\x13\xb1\x01\x86\x4c\xb9\x63\xaf\x01\x00\x00\x00\x01\x00\x00"
     "\x00\x79\xb4\x01\x86\x4c\xbb\x63\xaf\x01\x00\x00\x00\x01\x00\x00"
     "\x00\xab\xbe\x01\x86\x4c\xc1\x63\xaf\x01\x00\x00\x00\x01\x00\x00"
     "\x00\xad\x97\x5c\xb6\x07\x48\xe5\x09\x01\x00\x00\x00\xe0\x1f\x53"
     "\xdf\x64\x18\x98\x50"sv},
    {"chunks/af63c14c8601beab.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x01\x00\x00\x00\x01\x00\x00\x00"
     "\xab\xbe\x01\x86\x4c\xc1\x63\xaf\x0c"sv},
    {"chunks/1eb41218936630bf.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x03\x00\x00\x00\x03\x00\x00\x00"
     "\xbf\x30\x66\x93\x18\x12\xb4\x1e\x08\x08\x08"sv},
    {"chunks/eadd251876130c72.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x03\x00\x00\x00\x03\x00\x00\x00"
     "\x72\x0c\x13\x76\x18\x25\xdd\xea\x02\x12\x13"sv},
    {"chunks/af63bb4c8601b479.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x01\x00\x00\x00\x01\x00\x00\x00"
     "\x79\xb4\x01\x86\x4c\xbb\x63\xaf\x06"sv},
    {"chunks/af63b94c8601b113.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x01\x00\x00\x00\x01\x00\x00\x00"
     "\x13\xb1\x01\x86\x4c\xb9\x63\xaf\x04"sv},
    {"chunks/09e54807b65c97ad.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x01\x00\x00\x00\x02\x00\x00\x00"
     "\xad\x97\x5c\xb6\x07\x48\xe5\x09\x80\x40"sv},
    {"chunks/af63bf4c8601bb45.mtc",
     "\x4d\x54\x43\x4b\x01\x00\x01\x00\x01\x00\x00\x00\x01\x00\x00\x00"
     "\x45\xbb\x01\x86\x4c\xbf\x63\xaf\x02"sv},
};

const std::string kV1Key = "w1|img|16";


/** kV1Store's manifest, copied to where a current reader looks for it. */
void
placeV1ManifestAtCurrentName(const std::string &root)
{
    writeFileBytes(SpillStore(root).manifestPath(kV1Key),
                   std::string(kV1Store[0].bytes));
}

/**
 * A spill store as the version-2 encoder (seven raw columns, a u32 pc
 * column among them, and operand words for fp add) wrote handTrace()
 * with PCs 4, 8 and 12 under key "w2|img|16": one manifest and seven
 * one-chunk columns, byte for byte. Later versions name manifests the
 * same way, and their cls chunk has this store's cls payload and so
 * its file name (chunks/e9f08f410c8b6dc8.mtc, kV2Store[2]).
 */
const StoreFile kV2Store[] = {
    {"manifests/00ab847904d971fc.mtm",
     "\x4d\x54\x52\x4d\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00"
     "\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
     "\x09\x00\x00\x00\x77\x32\x7c\x69\x6d\x67\x7c\x31\x36\x01\x00\x00"
     "\x00\xc8\x6d\x8b\x0c\x41\x8f\xf0\xe9\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x26\xcb\xad\x0b\xa6\x0e\xcf\xb8\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x30\xe7\x21\x1b\x81\x27\x41\x8a\x01\x00\x00\x00\x01\x00\x00"
     "\x00\xb0\x2d\xe8\x44\x40\x3e\xc7\xea\x01\x00\x00\x00\x01\x00\x00"
     "\x00\x41\x48\xec\xa7\x6d\x16\xb8\x87\x01\x00\x00\x00\x01\x00\x00"
     "\x00\x03\x49\xa0\x11\x34\x1e\xed\x9a\x01\x00\x00\x00\x01\x00\x00"
     "\x00\x6f\xc1\x65\xf7\xd9\x8a\x0b\xce\x01\x00\x00\x00\x70\xec\x82"
     "\x05\xe4\x3d\x08\xee"sv},
    {"chunks/eac73e4044e82db0.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x08\x01\x00\x00\x00\x08\x00\x00\x00"
     "\xb0\x2d\xe8\x44\x40\x3e\xc7\xea\x02\x00\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/e9f08f410c8b6dc8.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x01\x03\x00\x00\x00\x03\x00\x00\x00"
     "\xc8\x6d\x8b\x0c\x41\x8f\xf0\xe9\x01\x0a\x00"sv},
    {"chunks/9aed1e3411a04903.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x08\x01\x00\x00\x00\x08\x00\x00\x00"
     "\x03\x49\xa0\x11\x34\x1e\xed\x9a\x06\x00\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/8a4127811b21e730.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x01\x01\x00\x00\x00\x01\x00\x00\x00"
     "\x30\xe7\x21\x1b\x81\x27\x41\x8a\x01"sv},
    {"chunks/ce0b8ad9f765c16f.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x08\x01\x00\x00\x00\x08\x00\x00\x00"
     "\x6f\xc1\x65\xf7\xd9\x8a\x0b\xce\x00\x10\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/87b8166da7ec4841.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x08\x01\x00\x00\x00\x08\x00\x00\x00"
     "\x41\x48\xec\xa7\x6d\x16\xb8\x87\x03\x00\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/b8cf0ea60badcb26.mtc",
     "\x4d\x54\x43\x4b\x02\x00\x02\x04\x03\x00\x00\x00\x0c\x00\x00\x00"
     "\x26\xcb\xad\x0b\xa6\x0e\xcf\xb8\x04\x00\x00\x00\x08\x00\x00\x00"
     "\x0c\x00\x00\x00"sv},
};

/**
 * IntMul, Load, FpMul, IntAlu, IntMul: two operand classes, so the
 * trace order of the operand records is not their class order.
 */
Trace
twoClassTrace()
{
    Trace t;
    auto op = [&](InstClass cls, uint64_t a, uint64_t b, uint64_t r) {
        Instruction inst;
        inst.cls = cls;
        inst.a = a;
        inst.b = b;
        inst.result = r;
        t.push(inst);
    };
    op(InstClass::IntMul, 2, 3, 6);
    Instruction ld;
    ld.cls = InstClass::Load;
    ld.addr = 0x1000;
    t.push(ld);
    op(InstClass::FpMul, 0x3ff8000000000000ull, 0x4000000000000000ull,
       0x4008000000000000ull); // 1.5 * 2.0 = 3.0
    Instruction alu;
    alu.cls = InstClass::IntAlu;
    t.push(alu);
    op(InstClass::IntMul, 4, 5, 20);
    return t;
}

/**
 * A spill store as the version-3 encoder (six raw columns: the
 * operand words in trace order, behind a u8 column naming each one's
 * class) wrote twoClassTrace() under key "w3|img|16": one
 * manifest and six one-chunk columns, byte for byte. Its cls chunk
 * (kV3Store[1]) is the current one's, name included.
 */
const StoreFile kV3Store[] = {
    {"manifests/817ccaf12e4f6b28.mtm",
     "\x4d\x54\x52\x4d\x03\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00"
     "\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
     "\x09\x00\x00\x00\x77\x33\x7c\x69\x6d\x67\x7c\x31\x36\x01\x00\x00"
     "\x00\xaf\xd5\x30\xd6\xd0\xc9\x1d\xae\x05\x00\x00\x00\x01\x00\x00"
     "\x00\x0c\x02\x7e\xd5\x4c\x3c\x54\x74\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x85\x2f\x65\x27\xc5\x53\xb1\x56\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x94\xba\x10\x24\xcc\x2e\x17\x9d\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x82\x90\x72\x94\x59\x61\xf3\x3d\x03\x00\x00\x00\x01\x00\x00"
     "\x00\x6f\xc1\x65\xf7\xd9\x8a\x0b\xce\x01\x00\x00\x00\x87\xbd\x74"
     "\x6d\xe4\xba\x81\x68"sv},
    {"chunks/ae1dc9d0d630d5af.mtc",
     "\x4d\x54\x43\x4b\x03\x00\x02\x01\x05\x00\x00\x00\x05\x00\x00\x00"
     "\xaf\xd5\x30\xd6\xd0\xc9\x1d\xae\x01\x0a\x03\x00\x01"sv},
    {"chunks/3df3615994729082.mtc",
     "\x4d\x54\x43\x4b\x03\x00\x02\x08\x03\x00\x00\x00\x18\x00\x00\x00"
     "\x82\x90\x72\x94\x59\x61\xf3\x3d\x06\x00\x00\x00\x00\x00\x00\x00"
     "\x00\x00\x00\x00\x00\x00\x08\x40\x14\x00\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/56b153c527652f85.mtc",
     "\x4d\x54\x43\x4b\x03\x00\x02\x08\x03\x00\x00\x00\x18\x00\x00\x00"
     "\x85\x2f\x65\x27\xc5\x53\xb1\x56\x02\x00\x00\x00\x00\x00\x00\x00"
     "\x00\x00\x00\x00\x00\x00\xf8\x3f\x04\x00\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/74543c4cd57e020c.mtc",
     "\x4d\x54\x43\x4b\x03\x00\x02\x01\x03\x00\x00\x00\x03\x00\x00\x00"
     "\x0c\x02\x7e\xd5\x4c\x3c\x54\x74\x01\x03\x01"sv},
    {"chunks/ce0b8ad9f765c16f.mtc",
     "\x4d\x54\x43\x4b\x03\x00\x02\x08\x01\x00\x00\x00\x08\x00\x00\x00"
     "\x6f\xc1\x65\xf7\xd9\x8a\x0b\xce\x00\x10\x00\x00\x00\x00\x00\x00"sv},
    {"chunks/9d172ecc2410ba94.mtc",
     "\x4d\x54\x43\x4b\x03\x00\x02\x08\x03\x00\x00\x00\x18\x00\x00\x00"
     "\x94\xba\x10\x24\xcc\x2e\x17\x9d\x03\x00\x00\x00\x00\x00\x00\x00"
     "\x00\x00\x00\x00\x00\x00\x00\x40\x05\x00\x00\x00\x00\x00\x00\x00"sv},
};

/** A store an earlier format version wrote, and the trace it holds. */
struct OldStore
{
    unsigned version;
    std::span<const StoreFile> files;
    const char *key;
    Trace (*trace)();
    size_t clsChunk; //!< index in files of the cls chunk
};

const OldStore kOldStores[] = {
    {2, kV2Store, "w2|img|16", handTrace, 2},
    {3, kV3Store, "w3|img|16", twoClassTrace, 1},
};

// ---------------------------------------------------------------------------
// Format pinning: these tests ARE docs/TRACE_FORMAT.md. Any change
// that fails one of them is a format change and must bump
// kSpillFormatVersion and revise the spec.
// ---------------------------------------------------------------------------

TEST(TraceSpillFormat, NormativeConstants)
{
    // §2: version and identification.
    EXPECT_EQ(kSpillFormatVersion, 4u);
    EXPECT_EQ(std::string(kChunkMagic, 4), "MTCK");
    EXPECT_EQ(std::string(kManifestMagic, 4), "MTRM");
    EXPECT_EQ(kEncodingRaw, 2u);
    EXPECT_EQ(kChunkHeaderBytes, 24u);
    EXPECT_EQ(kManifestHeaderBytes, 36u);
    EXPECT_EQ(kDefaultChunkElems, 65536u);
    EXPECT_EQ(kMaxChunkElems, 536870911u); // 8 * it fits payloadBytes

    // §4: XXH64, seed 0. The empty input and "abc" are the published
    // vectors; 0..99 exercises the 32-byte stripe loop and every tail
    // step (value from the reference implementation).
    EXPECT_EQ(xxh64("", 0), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ull);
    unsigned char ramp[100];
    for (unsigned i = 0; i < sizeof(ramp); i++)
        ramp[i] = static_cast<unsigned char>(i);
    EXPECT_EQ(xxh64(ramp, sizeof(ramp)), 0x6AC1E58032166597ull);

    // §3: the five stored columns, their order and element widths.
    ASSERT_EQ(kNumTraceColumns, 5u);
    const struct
    {
        TraceColumn col;
        const char *name;
        unsigned width;
    } table[] = {
        {TraceColumn::Cls, "cls", 1},     {TraceColumn::OpA, "opA", 8},
        {TraceColumn::OpB, "opB", 8},     {TraceColumn::OpRes, "opRes", 8},
        {TraceColumn::Addr, "addr", 8},
    };
    for (size_t i = 0; i < kNumTraceColumns; i++) {
        EXPECT_EQ(static_cast<size_t>(table[i].col), i);
        EXPECT_STREQ(traceColumnName(table[i].col), table[i].name);
        EXPECT_EQ(traceColumnWidth(table[i].col), table[i].width);
    }
}

TEST(TraceSpillFormat, ChunkHeaderLayout)
{
    // Values {1, 2, 3} as u64: three 8-byte words. The whole file must
    // be 24 header + 24 payload bytes.
    const uint64_t v[] = {1, 2, 3};
    EncodedChunk ch = encodeChunk(v, 3);
    const std::string &s = ch.bytes;
    ASSERT_EQ(s.size(), kChunkHeaderBytes + 24);

    EXPECT_EQ(s.substr(0, 4), "MTCK");                 // bytes 0-3
    EXPECT_EQ(u16At(s, 4), kSpillFormatVersion);       // bytes 4-5
    EXPECT_EQ(static_cast<uint8_t>(s[6]), kEncodingRaw);
    EXPECT_EQ(static_cast<uint8_t>(s[7]), 8u);         // width
    EXPECT_EQ(u32At(s, 8), 3u);                        // elemCount
    EXPECT_EQ(u32At(s, 12), 24u);                      // payloadBytes
    const std::string payload = s.substr(kChunkHeaderBytes);
    EXPECT_EQ(payload, std::string("\x01\0\0\0\0\0\0\0"
                                   "\x02\0\0\0\0\0\0\0"
                                   "\x03\0\0\0\0\0\0\0",
                                   24));
    EXPECT_EQ(u64At(s, 16), xxh64(payload.data(), payload.size()));
    EXPECT_EQ(ch.hash, u64At(s, 16));
    EXPECT_EQ(ch.elems, 3u);

    EXPECT_EQ(decode64(s), std::vector<uint64_t>({1, 2, 3}));
}

TEST(TraceSpillFormat, PayloadIsLittleEndianWordsOfTheColumnWidth)
{
    // §4: each element is one little-endian word of the header's
    // width, and §3: each column's chunks carry that column's width.
    const uint8_t narrow[] = {0x01, 0xff};
    const uint64_t wide[] = {0x0102030405060708ull};
    const EncodedChunk c1 = encodeChunk(narrow, 2);
    const EncodedChunk c8 = encodeChunk(wide, 1);
    EXPECT_EQ(static_cast<uint8_t>(c1.bytes[7]), 1u);
    EXPECT_EQ(static_cast<uint8_t>(c8.bytes[7]), 8u);
    EXPECT_EQ(c1.bytes.substr(kChunkHeaderBytes), "\x01\xff");
    EXPECT_EQ(c8.bytes.substr(kChunkHeaderBytes),
              "\x08\x07\x06\x05\x04\x03\x02\x01");

    EncodedTrace enc = encodeTraceChunked(sampleTrace(100), 16);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        const unsigned width =
            traceColumnWidth(static_cast<TraceColumn>(c));
        ASSERT_FALSE(enc.cols[c].empty());
        for (const EncodedChunk &ch : enc.cols[c]) {
            EXPECT_EQ(static_cast<uint8_t>(ch.bytes[7]), width);
            EXPECT_EQ(u32At(ch.bytes, 12), ch.elems * width);
        }
    }
}

TEST(TraceSpillFormat, ChunkHashesArePinned)
{
    // The store is content-addressed: an encoder whose bytes drift
    // would orphan every spill directory already on disk. These are
    // the chunk hashes of sampleTrace(300) at chunk_elems 64. The
    // operand rows are the first version-4 encoder's (class-major
    // words, checked against the class-major concatenation of the
    // records hashed slice by slice); the cls and addr rows are
    // version 2's: those columns kept their contents.
    const std::vector<std::vector<uint64_t>> pinned = {
        {0x041323bf48217167ull, 0x06eefa06bccc2b81ull,
         0xbe465289613b09c9ull, 0x7a6c69a22629a7a5ull,
         0x7e53984b811bc12cull}, // cls
        {0x2c86b3b4c8b32317ull, 0x3a83fa2ed249d774ull,
         0x4bde6d0e6b1bd2aeull}, // opA
        {0xd8f61314f6619df4ull, 0xf2d69e1d08fa2221ull,
         0x5befee36fc50f5a8ull}, // opB
        {0x4ce4e61721b53e09ull, 0x0c775de6538a0ba6ull,
         0xb4340f11fb093292ull}, // opRes
        {0xe0e1efe78b83c1f2ull}, // addr
    };
    EncodedTrace enc = encodeTraceChunked(sampleTrace(300), 64);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        std::vector<uint64_t> got;
        for (const EncodedChunk &ch : enc.cols[c]) {
            got.push_back(ch.hash);
            EXPECT_EQ(u64At(ch.bytes, 16), ch.hash);
        }
        EXPECT_EQ(got, pinned[c])
            << traceColumnName(static_cast<TraceColumn>(c));
    }
}

TEST(TraceSpillFormat, ManifestLayout)
{
    const std::string key = "kern|img|32";
    EncodedTrace enc = encodeTraceChunked(handTrace(), 4);
    enc.manifest.key = key;
    std::string s = encodeManifest(enc.manifest);

    ASSERT_GE(s.size(), kManifestHeaderBytes + key.size() + 8);
    EXPECT_EQ(s.substr(0, 4), "MTRM");           // bytes 0-3
    EXPECT_EQ(u16At(s, 4), kSpillFormatVersion); // bytes 4-5
    EXPECT_EQ(u16At(s, 6), 0u);                  // reserved
    EXPECT_EQ(u64At(s, 8), 3u);                  // recordCount
    EXPECT_EQ(u64At(s, 16), 1u);                 // opCount
    EXPECT_EQ(u64At(s, 24), 1u);                 // addrCount
    EXPECT_EQ(u32At(s, 32), key.size());         // keyLen
    EXPECT_EQ(s.substr(36, key.size()), key);

    // Column tables in TraceColumn order: chunkCount u32 then
    // (hash u64, elemCount u32) per chunk.
    size_t off = kManifestHeaderBytes + key.size();
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        ASSERT_EQ(u32At(s, off), enc.cols[c].size());
        off += 4;
        for (const EncodedChunk &ch : enc.cols[c]) {
            EXPECT_EQ(u64At(s, off), ch.hash);
            EXPECT_EQ(u32At(s, off + 8), ch.elems);
            off += 12;
        }
    }

    // Trailing manifestHash covers every preceding byte.
    ASSERT_EQ(off + 8, s.size());
    EXPECT_EQ(u64At(s, off), xxh64(s.data(), off));

    TraceManifest back = decodeManifest(s);
    EXPECT_EQ(back.key, key);
    EXPECT_EQ(back.records, 3u);
    EXPECT_EQ(back.ops, 1u);
    EXPECT_EQ(back.addrs, 1u);
}

// ---------------------------------------------------------------------------
// Codec round-trip and rejection (pure bytes, no filesystem).
// ---------------------------------------------------------------------------

TEST(TraceSpillCodec, RoundTripAtChunkBoundaryLengths)
{
    // chunk_elems = 4: lengths straddling one and two chunk
    // boundaries, plus empty and single-record traces.
    for (size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 26u}) {
        Trace t = sampleTrace(n);
        EncodedTrace enc = encodeTraceChunked(t, 4);
        EXPECT_EQ(enc.manifest.records, n);
        Trace back = decodeTraceChunked(enc);
        expectTracesEqual(t, back);
    }
}

TEST(TraceSpillCodec, RoundTripDefaultChunking)
{
    Trace t = sampleTrace(1000);
    expectTracesEqual(t, decodeTraceChunked(encodeTraceChunked(t)));
}

TEST(TraceSpillCodec, ChunkElemsOutsideTheFormatAreRefused)
{
    // kMaxChunkElems u64 words are the most payloadBytes can count.
    EXPECT_THROW(encodeTraceChunked(sampleTrace(3), 0), SpillError);
    EXPECT_THROW(encodeTraceChunked(sampleTrace(3), kMaxChunkElems + 1),
                 SpillError);
    expectTracesEqual(
        sampleTrace(3),
        decodeTraceChunked(encodeTraceChunked(sampleTrace(3),
                                              kMaxChunkElems)));
}

TEST(TraceSpillCodec, ChunkRejectsEveryHeaderDefect)
{
    const uint64_t v[] = {10, 20, 30, 40};
    const std::string good = encodeChunk(v, 4).bytes;
    EXPECT_NO_THROW(decode64(good));

    auto mutate = [&](size_t off, char to) {
        std::string bad = good;
        bad[off] = to;
        return bad;
    };
    EXPECT_THROW(decode64(mutate(0, 'X')), SpillError);  // magic
    EXPECT_THROW(decode64(mutate(4, 1)), SpillError);    // version 1
    EXPECT_THROW(decode64(mutate(4, 2)), SpillError);    // version 2
    EXPECT_THROW(decode64(mutate(4, 3)), SpillError);    // version 3
    EXPECT_THROW(decode64(mutate(4, 5)), SpillError);    // version 5
    EXPECT_THROW(decode64(mutate(6, 1)), SpillError);    // encoding 1
    EXPECT_THROW(decode64(mutate(7, 3)), SpillError);    // width
    EXPECT_THROW(decode64(mutate(7, 4)), SpillError);    // width 4 (v2's pc)
    EXPECT_THROW(decode64(mutate(7, 1)), SpillError);    // width vs count
    EXPECT_THROW(decode64(mutate(8, 3)), SpillError);    // elemCount
    EXPECT_THROW(decode64(mutate(12, 9)), SpillError);   // payloadBytes
    EXPECT_THROW(decode64(mutate(16, 0)), SpillError);   // contentHash
    EXPECT_THROW(decode64(mutate(kChunkHeaderBytes, 0x7f)),
                 SpillError);                            // payload
    EXPECT_THROW(decode64(good.substr(0, good.size() - 1)),
                 SpillError);                            // truncation
    EXPECT_THROW(decode64(good.substr(0, 10)), SpillError);
    EXPECT_THROW(decode64(std::string_view()), SpillError);
}

/** Chunk image with its header's elemCount, payloadBytes and hash set. */
std::string
withHeader(std::string chunk, uint32_t elems, uint32_t payload_bytes,
           uint64_t hash)
{
    for (size_t i = 0; i < 4; i++) {
        chunk[8 + i] = static_cast<char>(elems >> (8 * i));
        chunk[12 + i] = static_cast<char>(payload_bytes >> (8 * i));
    }
    for (size_t i = 0; i < 8; i++)
        chunk[16 + i] = static_cast<char>(hash >> (8 * i));
    return chunk;
}

/** What decoding @p chunk into a T column throws, or "" if it decodes. */
template <typename T = uint64_t>
std::string
chunkError(std::string_view chunk, const ChunkRef *expect = nullptr)
{
    std::vector<T> out;
    try {
        decodeChunkInto(chunk, out, "chunk", expect);
    } catch (const SpillError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceSpillCodec, ChunkReportsFailuresInSpecOrder)
{
    // A chunk with every defect §4 lists at once, repaired one field
    // at a time: each repair must move the report to the next check,
    // so no check can run early or be skipped.
    const uint64_t v[] = {1, 2, 3};
    const EncodedChunk good = encodeChunk(v, 3);
    const ChunkRef right{good.hash, 3};
    const ChunkRef wrongHash{good.hash ^ 1, 3};
    const ChunkRef wrongCount{good.hash, 2};

    std::string bad = withHeader(good.bytes, 2, 25, ~good.hash);
    bad[0] = 'X'; // magic
    bad[4] = 1;   // version
    bad[6] = 1;   // encoding
    bad[7] = 3;   // width
    auto repair = [&](size_t off) {
        bad[off] = good.bytes[off];
        return bad;
    };

    EXPECT_EQ(chunkError<uint8_t>(bad.substr(0, 23), &wrongHash),
              "chunk header: truncated (23 of 24 bytes)");
    EXPECT_EQ(chunkError<uint8_t>(bad, &wrongHash),
              "chunk header: bad magic");
    EXPECT_EQ(chunkError<uint8_t>(repair(0), &wrongHash),
              "chunk header: unsupported version 1 (expected 4)");
    EXPECT_EQ(chunkError<uint8_t>(repair(4), &wrongHash),
              "chunk header: unknown encoding id 1");
    EXPECT_EQ(chunkError<uint8_t>(repair(6), &wrongHash),
              "chunk header: invalid element width 3");
    EXPECT_EQ(chunkError<uint8_t>(repair(7), &wrongHash),
              "chunk: payload size mismatch (header says 25, file has "
              "24)");
    bad = withHeader(bad, 2, 24, ~good.hash);
    EXPECT_EQ(chunkError<uint8_t>(bad, &wrongHash),
              "chunk: content hash mismatch");
    bad = withHeader(bad, 2, 24, good.hash);
    EXPECT_EQ(chunkError<uint8_t>(bad, &wrongHash),
              "chunk: element count mismatch (header says 2 elements of 8 "
              "bytes, payload holds 24 bytes)");
    EXPECT_EQ(chunkError<uint8_t>(good.bytes, &wrongHash),
              "chunk: chunk width 8, column width 1");
    EXPECT_EQ(chunkError(good.bytes, &wrongHash),
              "chunk: chunk hash differs from the manifest's");
    EXPECT_EQ(chunkError(good.bytes, &wrongCount),
              "chunk: chunk element count differs from the manifest's");
    EXPECT_EQ(chunkError(good.bytes, &right), "");
}

TEST(TraceSpillCodec, ImpossibleCountThrowsWithoutAllocating)
{
    // A 24-byte payload holds three u64 words. 0x20000003 * 8 wraps to
    // 24 in 32 bits, and 0xffffffff is the largest count a header can
    // carry: the decoder must reject both before it sizes the output.
    const uint64_t v[] = {1, 2, 3};
    const std::string good = encodeChunk(v, 3).bytes;
    for (uint32_t elems : {0x20000003u, 0xffffffffu}) {
        const std::string bad =
            withHeader(good, elems, 24, u64At(good, 16));
        std::vector<uint64_t> out;
        try {
            decodeChunkInto(bad, out, "opA");
            FAIL() << "decoded an impossible count";
        } catch (const SpillError &e) {
            EXPECT_EQ(std::string(e.what()),
                      "opA: element count mismatch (header says " +
                          std::to_string(elems) +
                          " elements of 8 bytes, payload holds 24 "
                          "bytes)");
        }
        EXPECT_EQ(out.capacity(), 0u);
    }
}

TEST(TraceSpillCodec, TypedDecodeAppendsAndChecksWidth)
{
    const uint8_t v[] = {7, 255, 0};
    const std::string ch = encodeChunk(v, 3).bytes;
    std::vector<uint8_t> narrow = {42};
    decodeChunkInto(ch, narrow, "cls");
    EXPECT_EQ(narrow, (std::vector<uint8_t>{42, 7, 255, 0}));

    // A chunk decodes only into a column of exactly its width, wider
    // or narrower, and a refused chunk leaves the column untouched.
    const uint64_t wide[] = {1, 256};
    std::vector<uint8_t> keep = {9};
    try {
        decodeChunkInto(encodeChunk(wide, 2).bytes, keep, "cls");
        FAIL() << "an 8-byte chunk decoded into a u8 column";
    } catch (const SpillError &e) {
        EXPECT_STREQ(e.what(), "cls: chunk width 8, column width 1");
    }
    EXPECT_EQ(keep, (std::vector<uint8_t>{9}));
    std::vector<uint64_t> keep64 = {9};
    try {
        decodeChunkInto(ch, keep64, "opA");
        FAIL() << "a 1-byte chunk decoded into a u64 column";
    } catch (const SpillError &e) {
        EXPECT_STREQ(e.what(), "opA: chunk width 1, column width 8");
    }
    EXPECT_EQ(keep64, (std::vector<uint64_t>{9}));
}

uint8_t
clsOf(InstClass c)
{
    return static_cast<uint8_t>(c);
}

/**
 * The five stored columns of a hand-built trace: cls and addr in
 * trace order, the operand columns class by class.
 */
struct HandColumns
{
    std::vector<uint8_t> cls;
    std::vector<uint64_t> opA, opB, opRes, addr;
};

/** The stored columns of handTrace(), written out by hand. */
HandColumns
validHand()
{
    HandColumns h;
    h.cls = {clsOf(InstClass::IntMul), clsOf(InstClass::Load),
             clsOf(InstClass::IntAlu)};
    h.opA = {2};
    h.opB = {3};
    h.opRes = {6};
    h.addr = {0x1000};
    return h;
}

/** Encode @p h in 2-element chunks; counts follow the column lengths. */
EncodedTrace
encodeHand(const HandColumns &h)
{
    EncodedTrace enc;
    TraceManifest &m = enc.manifest;
    m.records = h.cls.size();
    m.ops = h.opA.size();
    m.addrs = h.addr.size();
    auto column = [&](TraceColumn c, const auto &v) {
        for (size_t base = 0; base < v.size(); base += 2) {
            auto len = static_cast<uint32_t>(
                std::min<size_t>(2, v.size() - base));
            EncodedChunk ch = encodeChunk(v.data() + base, len);
            m.cols[static_cast<size_t>(c)].push_back({ch.hash, ch.elems});
            enc.cols[static_cast<size_t>(c)].push_back(std::move(ch));
        }
    };
    column(TraceColumn::Cls, h.cls);
    column(TraceColumn::OpA, h.opA);
    column(TraceColumn::OpB, h.opB);
    column(TraceColumn::OpRes, h.opRes);
    column(TraceColumn::Addr, h.addr);
    return enc;
}

/** What decodeTraceChunked throws for @p enc, or "" when it decodes. */
std::string
traceError(const EncodedTrace &enc)
{
    try {
        decodeTraceChunked(enc);
    } catch (const SpillError &e) {
        return e.what();
    }
    return "";
}

std::string
traceError(const HandColumns &h)
{
    return traceError(encodeHand(h));
}

/** What TraceStore::adopt throws for @p cols, or "" when it adopts. */
std::string
adoptError(TraceStore::Columns cols)
{
    try {
        TraceStore::adopt(std::move(cols));
    } catch (const SpillError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceSpillCodec, AdoptChecksEveryCrossColumnRule)
{
    const HandColumns good = validHand();
    ASSERT_EQ(traceError(good), "");
    Trace back = decodeTraceChunked(encodeHand(good));
    expectTracesEqual(back, handTrace());

    // Every class value is an InstClass.
    HandColumns h = good;
    h.cls[2] = numInstClasses; // fits a u8, names no class
    EXPECT_EQ(traceError(h), "cls: value " +
                                 std::to_string(numInstClasses) +
                                 " is not an InstClass");

    // Each class column holds exactly the records cls implies: a
    // second IntMul with no operand words behind it leaves its class
    // short, and a word that no record owns has no class to go to.
    h = good;
    h.cls.insert(h.cls.begin(), clsOf(InstClass::IntMul));
    EXPECT_EQ(traceError(h), "trace: class column implies 2 operand "
                             "records of class 1, its columns hold 1, 1 "
                             "and 1 words");
    h = good;
    h.opA.push_back(1);
    h.opB.push_back(1);
    h.opRes.push_back(1);
    EXPECT_EQ(traceError(h),
              "opA: holds more words than the class column implies");

    // An fp add stored as an operand record, as version 2 did: fp-add
    // records own no operand words.
    h = good;
    h.cls[2] = clsOf(InstClass::FpAdd);
    h.opA.push_back(1);
    h.opB.push_back(2);
    h.opRes.push_back(3);
    EXPECT_EQ(traceError(h),
              "opA: holds more words than the class column implies");

    // addr holds exactly the Load/Store count.
    h = good; // a second Load with no address behind it
    h.cls.insert(h.cls.begin(), clsOf(InstClass::Load));
    EXPECT_EQ(traceError(h), "trace: class column implies 2 address "
                             "records, addr column holds 1");
    h = good;
    h.addr.push_back(0x2000);
    EXPECT_EQ(traceError(h), "trace: class column implies 1 address "
                             "records, addr column holds 2");

    // adopt() holds the same rules on columns that bypass the decoder,
    // which can also hand it an fp-add class column or a class whose
    // a, b and result columns differ in length.
    TraceStore::Columns cols;
    cols.cls = {clsOf(InstClass::FpAdd)};
    TraceStore::ClassColumns &fp_add =
        cols.ops[static_cast<unsigned>(InstClass::FpAdd)];
    fp_add.a = {1};
    fp_add.b = {2};
    fp_add.r = {3};
    EXPECT_EQ(adoptError(cols), "trace: class column implies 0 operand "
                                "records of class 2, its columns hold 1, "
                                "1 and 1 words");
    cols = {};
    cols.cls = {clsOf(InstClass::IntMul)};
    TraceStore::ClassColumns &mul =
        cols.ops[static_cast<unsigned>(InstClass::IntMul)];
    mul.a = {2};
    mul.b = {3, 4};
    mul.r = {6};
    EXPECT_EQ(adoptError(cols), "trace: class column implies 1 operand "
                                "records of class 1, its columns hold 1, "
                                "2 and 1 words");
    mul.b = {3};
    EXPECT_EQ(adoptError(cols), "");
}

TEST(TraceSpillCodec, DecodeChecksChunksAgainstTheManifest)
{
    const EncodedTrace good = encodeHand(validHand());
    const auto cls = static_cast<size_t>(TraceColumn::Cls);

    EncodedTrace enc = good;
    enc.manifest.records = 4;
    EXPECT_EQ(traceError(enc),
              "cls: chunk element counts sum to 3, trace counts imply 4");

    // A valid chunk of the wrong width, named by the manifest.
    enc = good;
    const uint64_t wide[] = {1, 10};
    enc.cols[cls][0] = encodeChunk(wide, 2);
    enc.manifest.cols[cls][0] = {enc.cols[cls][0].hash, 2};
    EXPECT_EQ(traceError(enc), "cls: chunk width 8, column width 1");

    // A valid chunk in the place of another.
    enc = good;
    std::swap(enc.cols[cls][0], enc.cols[cls][1]);
    EXPECT_EQ(traceError(enc), "cls: chunk hash differs from the manifest's");

    // The manifest's counts move between chunks but keep their sum.
    enc = good;
    std::swap(enc.manifest.cols[cls][0].elems,
              enc.manifest.cols[cls][1].elems);
    EXPECT_EQ(traceError(enc),
              "cls: chunk element count differs from the manifest's");
}

TEST(TraceSpillCodec, EverySingleBitFlipIsRejected)
{
    // §4 and §5: every bit of every chunk and of the manifest is
    // load-bearing, so no single flip may decode.
    const EncodedTrace good = encodeTraceChunked(sampleTrace(40), 8);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        for (size_t i = 0; i < good.cols[c].size(); i++) {
            for (size_t bit = 0; bit < good.cols[c][i].bytes.size() * 8;
                 bit++) {
                EncodedTrace bad = good;
                std::string &bytes = bad.cols[c][i].bytes;
                bytes[bit / 8] =
                    static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
                ASSERT_NE(traceError(bad), "")
                    << traceColumnName(static_cast<TraceColumn>(c))
                    << " chunk " << i << " bit " << bit;
            }
        }
    }
    const std::string manifest = encodeManifest(good.manifest);
    for (size_t bit = 0; bit < manifest.size() * 8; bit++) {
        std::string bad = manifest;
        bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
        ASSERT_THROW(decodeManifest(bad), SpillError) << "bit " << bit;
    }
}

TEST(TraceSpillCodec, ManifestRejectsCorruption)
{
    EncodedTrace enc = encodeTraceChunked(sampleTrace(40), 8);
    enc.manifest.key = "a|b|1";
    std::string good = encodeManifest(enc.manifest);
    EXPECT_NO_THROW(decodeManifest(good));

    for (size_t off : {size_t{0}, size_t{4}, size_t{8}, size_t{33},
                       good.size() / 2, good.size() - 1}) {
        std::string bad = good;
        bad[off] = static_cast<char>(bad[off] ^ 0x10);
        EXPECT_THROW(decodeManifest(bad), SpillError) << off;
    }
    EXPECT_THROW(decodeManifest(good.substr(0, good.size() - 2)),
                 SpillError);
}

// ---------------------------------------------------------------------------
// SpillStore: files, dedup, corruption.
// ---------------------------------------------------------------------------

TEST(TraceSpillStore, FileRoundTrip)
{
    SpillStore store(tempRoot("roundtrip"));
    for (size_t n : {0u, 1u, 500u}) {
        const std::string key = "t|" + std::to_string(n) + "|0";
        Trace t = sampleTrace(n);
        EXPECT_FALSE(store.contains(key));
        store.write(key, t, 64);
        EXPECT_TRUE(store.contains(key));
        expectTracesEqual(t, store.read(key));
    }
    EXPECT_EQ(store.keys().size(), 3u);
}

TEST(TraceSpillStore, RewriteSharesEveryChunk)
{
    SpillStore store(tempRoot("dedup"));
    Trace t = sampleTrace(300);
    // 31-element chunks: no two chunks of this trace are equal, so the
    // first write shares none (its operand columns repeat every 32).
    SpillStore::WriteStats first = store.write("k|i|1", t, 31);
    EXPECT_GT(first.chunksWritten, 0u);
    EXPECT_EQ(first.chunksShared, 0u);

    SpillStore::WriteStats second = store.write("k|i|1", t, 31);
    EXPECT_EQ(second.chunksWritten, 0u);
    EXPECT_EQ(second.chunksShared, first.chunksWritten);
    EXPECT_EQ(second.bytesShared,
              first.bytesWritten - second.bytesWritten);
    // Only the (rewritten) manifest hits the disk the second time.
    EXPECT_LT(second.bytesWritten, first.bytesWritten);
}

TEST(TraceSpillStore, CrossKeySharingAddsNoChunkFiles)
{
    std::string root = tempRoot("xkey");
    SpillStore store(root);
    Trace t = sampleTrace(300);
    store.write("kern|imgA|8", t, 32);
    size_t files = countChunkFiles(root);
    SpillStore::WriteStats ws = store.write("kern|imgB|8", t, 32);
    EXPECT_EQ(countChunkFiles(root), files);
    EXPECT_EQ(ws.chunksWritten, 0u);
    expectTracesEqual(store.read("kern|imgA|8"),
                      store.read("kern|imgB|8"));
    EXPECT_EQ(store.keys(),
              (std::vector<std::string>{"kern|imgA|8", "kern|imgB|8"}));
}

TEST(TraceSpillStore, DetectsChunkCorruption)
{
    SpillStore store(tempRoot("badchunk"));
    Trace t = sampleTrace(200);
    store.write("k|i|1", t, 64);

    // Flip one payload byte of the first opA chunk.
    TraceManifest m = store.manifest("k|i|1");
    ASSERT_FALSE(m.col(TraceColumn::OpA).empty());
    std::string path = store.chunkPath(m.col(TraceColumn::OpA)[0].hash);
    std::string bytes = readFileBytes(path);
    bytes[bytes.size() - 1] =
        static_cast<char>(bytes[bytes.size() - 1] ^ 1);
    writeFileBytes(path, bytes);

    EXPECT_TRUE(store.contains("k|i|1")); // manifest is intact
    EXPECT_THROW(store.read("k|i|1"), SpillError);

    // Truncation must also be caught, not read out of bounds.
    writeFileBytes(path, bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(store.read("k|i|1"), SpillError);
}

TEST(TraceSpillStore, DetectsVersionSkew)
{
    SpillStore store(tempRoot("badver"));
    store.write("k|i|1", sampleTrace(50), 64);
    TraceManifest m = store.manifest("k|i|1");
    std::string path = store.chunkPath(m.col(TraceColumn::Cls)[0].hash);
    std::string bytes = readFileBytes(path);
    bytes[4] = 5; // future format version
    writeFileBytes(path, bytes);
    EXPECT_THROW(store.read("k|i|1"), SpillError);
}

TEST(TraceSpillStore, V1FilesAreNeverDecoded)
{
    const std::string root = tempRoot("v1");
    SpillStore store(root);
    writeStoreFiles(root, kV1Store);

    // Version 1 named manifests by FNV-1a of the key, so a current
    // reader finds none: a clean miss, and the listing skips the v1
    // file.
    EXPECT_FALSE(store.readIfPresent(kV1Key).has_value());
    EXPECT_FALSE(store.contains(kV1Key));
    EXPECT_TRUE(store.keys().empty());

    // A v1 manifest where a current one belongs fails its trailing
    // hash.
    placeV1ManifestAtCurrentName(root);
    EXPECT_FALSE(store.contains(kV1Key));
    EXPECT_THROW(store.readIfPresent(kV1Key), SpillError);

    // A current manifest whose chunk file holds a v1 chunk.
    store.write(kV1Key, handTrace());
    const TraceManifest m = store.manifest(kV1Key);
    writeFileBytes(store.chunkPath(m.col(TraceColumn::Cls)[0].hash),
                   std::string(kV1Store[3].bytes)); // v1 cls chunk
    try {
        store.readIfPresent(kV1Key);
        FAIL() << "a v1 chunk decoded";
    } catch (const SpillError &e) {
        EXPECT_STREQ(e.what(),
                     "chunk header: unsupported version 1 (expected 4)");
    }
}

TEST(TraceSpillStore, V2FilesAreNeverDecoded)
{
    for (const OldStore &old : kOldStores) {
        const std::string v = std::to_string(old.version);
        SCOPED_TRACE("version " + v);
        const std::string root = tempRoot("v" + v);
        SpillStore store(root);
        writeStoreFiles(root, old.files);
        const std::string skew =
            "unsupported version " + v + " (expected 4)";

        // Every version from 2 on names manifests alike: the old
        // manifest is found and fails its version check, so the key
        // is not listed and a read names the version.
        EXPECT_FALSE(store.contains(old.key));
        EXPECT_TRUE(store.keys().empty());
        try {
            store.readIfPresent(old.key);
            FAIL() << "an old manifest decoded";
        } catch (const SpillError &e) {
            EXPECT_EQ(std::string(e.what()), "manifest: " + skew);
        }

        // A write over the old store finds the old cls chunk at the
        // name of its own cls chunk, and replaces it instead of
        // sharing it.
        store.write(old.key, old.trace());
        const TraceManifest m = store.manifest(old.key);
        const std::string cls_path =
            store.chunkPath(m.col(TraceColumn::Cls)[0].hash);
        ASSERT_EQ(fs::path(cls_path).filename(),
                  fs::path(old.files[old.clsChunk].path).filename());
        expectTracesEqual(store.read(old.key), old.trace());

        // A current manifest whose chunk file holds an old chunk.
        writeFileBytes(cls_path,
                       std::string(old.files[old.clsChunk].bytes));
        try {
            store.readIfPresent(old.key);
            FAIL() << "an old chunk decoded";
        } catch (const SpillError &e) {
            EXPECT_EQ(std::string(e.what()), "chunk header: " + skew);
        }
    }
}

TEST(TraceSpillStore, CorruptManifestReadsAsAbsent)
{
    SpillStore store(tempRoot("badman"));
    store.write("k|i|1", sampleTrace(50), 64);
    std::string path = store.manifestPath("k|i|1");
    std::string bytes = readFileBytes(path);
    bytes[10] = static_cast<char>(bytes[10] ^ 0x40);
    writeFileBytes(path, bytes);

    EXPECT_FALSE(store.contains("k|i|1"));
    EXPECT_TRUE(store.keys().empty());
    EXPECT_THROW(store.read("k|i|1"), SpillError);
}

TEST(TraceSpillStore, ReadingNeverCreatesAStore)
{
    // Readers open a store with SpillStore::existing: a missing root,
    // or a directory without a manifests directory, is an error that
    // names the path and leaves the file system as it was.
    const std::string missing = tempRoot("nostore");
    try {
        SpillStore::existing(missing);
        FAIL() << "existing() opened a missing store";
    } catch (const SpillError &e) {
        EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(fs::exists(missing));

    const std::string plain = tempRoot("plaindir");
    fs::create_directories(plain);
    EXPECT_THROW(SpillStore::existing(plain), SpillError);
    EXPECT_TRUE(fs::is_empty(plain));

    // A store made by a writer opens, and its traces read back.
    const std::string root = tempRoot("existing");
    Trace t = sampleTrace(70);
    SpillStore(root).write("k|i|1", t, 16);
    SpillStore store = SpillStore::existing(root);
    expectTracesEqual(t, store.read("k|i|1"));
    try {
        store.read("no|such|0");
        FAIL() << "read of an absent key succeeded";
    } catch (const SpillError &e) {
        EXPECT_NE(std::string(e.what()).find(root), std::string::npos)
            << e.what();
    }
}

TEST(TraceSpillStore, FailedWriteThrowsAndLeavesNoTempFile)
{
    // A directory squatting on the manifest's path makes the final
    // rename fail: the write must report it, remove its temp file and
    // leave the key absent.
    std::string root = tempRoot("badwrite");
    SpillStore store(root);
    const std::string key = "k|i|1";
    fs::create_directories(fs::path(store.manifestPath(key)) / "squat");
    try {
        store.write(key, sampleTrace(50), 64);
        FAIL() << "write over a directory succeeded";
    } catch (const SpillError &e) {
        EXPECT_EQ(std::string(e.what()).rfind("spill write: rename to ", 0),
                  0u)
            << e.what();
    }
    for (const auto &e : fs::recursive_directory_iterator(root))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << e.path();
    // Reading a directory as a manifest is a SpillError, never an
    // escaping iostream exception.
    EXPECT_FALSE(store.contains(key));
    EXPECT_THROW(store.read(key), SpillError);
}

TEST(TraceSpillStore, RecordedTraceRoundTrips)
{
    // Every kind of record a Recorder emits — operand records with
    // their results, remapped addresses and the bookkeeping classes —
    // comes back from the store unchanged.
    Trace t;
    Recorder rec(t);
    double buf[4] = {1.0, 2.0, 3.0, 4.0};
    rec.mul(2.5, 4.0);
    rec.div(10.0, 3.0);
    rec.imul(-7, 6);
    rec.load(buf[2]);
    rec.store(buf[1], 9.0);
    rec.alu(3);
    rec.branch();
    rec.sqrt(2.0);
    rec.fadd(1.0, -0.0);
    ASSERT_GE(t.size(), 9u);

    SpillStore store(tempRoot("recorded"));
    store.write("memo-sim", t);
    expectTracesEqual(t, store.read("memo-sim"));
}

TEST(TraceSpillStore, RewriteWithAShorterTraceReadsBackAlone)
{
    // A shorter trace saved over a longer one under the same key reads
    // back alone, with no tail of the earlier trace's records.
    SpillStore store(tempRoot("shorter"));
    store.write("memo-sim", sampleTrace(700), 64);
    Trace shorter = sampleTrace(90);
    store.write("memo-sim", shorter, 64);
    expectTracesEqual(shorter, store.read("memo-sim"));
    EXPECT_EQ(store.manifest("memo-sim").records, 90u);
    EXPECT_EQ(store.keys(), std::vector<std::string>{"memo-sim"});
}

TEST(TraceSpillStore, RewritingOneKeyLeavesItsSharersIntact)
{
    // Two keys share every chunk; saving a different trace under one
    // of them must not disturb what the other reads.
    SpillStore store(tempRoot("sharers"));
    Trace t = sampleTrace(300);
    store.write("a|i|1", t, 32);
    store.write("b|i|1", t, 32);
    Trace other = sampleTrace(41);
    store.write("a|i|1", other, 32);
    expectTracesEqual(other, store.read("a|i|1"));
    expectTracesEqual(t, store.read("b|i|1"));
}

/** Distinct chunk hashes the manifests of @p keys reference. */
std::set<uint64_t>
referencedChunks(const SpillStore &store,
                 const std::vector<std::string> &keys)
{
    std::set<uint64_t> out;
    for (const std::string &key : keys)
        for (const std::vector<ChunkRef> &col : store.manifest(key).cols)
            for (const ChunkRef &ref : col)
                out.insert(ref.hash);
    return out;
}

TEST(TraceSpillStore, ReplacedManifestLeavesNoOrphanedChunks)
{
    // Saving a different trace under a key deletes the chunks only the
    // replaced manifest referenced: the store then holds exactly the
    // distinct chunks its manifest references.
    const std::string root = tempRoot("orphans");
    SpillStore store(root);
    store.write("memo-sim", sampleTrace(700), 64);
    const size_t before = countChunkFiles(root);
    store.write("memo-sim", sampleTrace(90), 64);
    const std::set<uint64_t> live = referencedChunks(store, {"memo-sim"});
    EXPECT_EQ(countChunkFiles(root), live.size());
    EXPECT_LT(live.size(), before);
    EXPECT_TRUE(store.unreferencedChunks().empty());
    expectTracesEqual(sampleTrace(90), store.read("memo-sim"));
}

TEST(TraceSpillStore, ReplacingKeepsChunksOtherKeysReference)
{
    const std::string root = tempRoot("orphans_shared");
    SpillStore store(root);
    store.write("a|i|1", sampleTrace(700), 64);
    store.write("b|i|1", sampleTrace(700), 64);
    const size_t full = countChunkFiles(root);
    store.write("a|i|1", sampleTrace(90), 64);
    // b still references every chunk of the replaced trace.
    EXPECT_EQ(countChunkFiles(root),
              referencedChunks(store, {"a|i|1", "b|i|1"}).size());
    expectTracesEqual(sampleTrace(700), store.read("b|i|1"));
    expectTracesEqual(sampleTrace(90), store.read("a|i|1"));

    store.write("b|i|1", sampleTrace(90), 64);
    EXPECT_EQ(countChunkFiles(root),
              referencedChunks(store, {"a|i|1", "b|i|1"}).size());
    EXPECT_LT(countChunkFiles(root), full);
    EXPECT_TRUE(store.unreferencedChunks().empty());
}

TEST(TraceSpillStore, CorruptManifestBlocksChunkDeletion)
{
    // A manifest that does not decode may reference any chunk, so a
    // replacing write deletes nothing while one is in the store.
    const std::string root = tempRoot("orphans_corrupt");
    SpillStore store(root);
    store.write("a|i|1", sampleTrace(700), 64);
    store.write("b|i|1", sampleTrace(700), 64);
    const std::string bpath = store.manifestPath("b|i|1");
    std::string bytes = readFileBytes(bpath);
    writeFileBytes(bpath, bytes.substr(0, bytes.size() / 2));
    EXPECT_EQ(store.scanManifests().corrupt, 1u);
    const size_t before = countChunkFiles(root);
    SpillStore::WriteStats ws = store.write("a|i|1", sampleTrace(90), 64);
    EXPECT_EQ(countChunkFiles(root), before + ws.chunksWritten);
}

TEST(TraceSpillStore, ConcurrentReplaceNeverLosesASharedChunk)
{
    // Two keys flip between a long and a short trace in two threads.
    // Saving the long one under b finds its chunks present while a
    // holds it, and does not rewrite them; a flipping back to the
    // short one must not delete them before b's manifest is written.
    // The store lock orders the two.
    SpillStore store(tempRoot("orphans_race"));
    const Trace full = sampleTrace(700);
    const Trace part = sampleTrace(90);
    std::atomic<bool> a_failed{false};
    // Two writers racing on one store is the point; the pool would
    // run them on one thread under --jobs 1.
    // NOLINTNEXTLINE(memo-CONC-001)
    std::thread flipper([&] {
        try {
            for (int i = 0; i < 100; i++) {
                store.write("a|i|1", full, 64);
                store.write("a|i|1", part, 64);
            }
        } catch (const SpillError &) {
            a_failed = true;
        }
    });
    int lost = 0;
    for (int i = 0; i < 100; i++) {
        store.write("b|i|1", full, 64);
        try {
            store.read("b|i|1");
        } catch (const SpillError &) {
            lost++;
        }
        store.write("b|i|1", part, 64);
    }
    flipper.join();
    EXPECT_FALSE(a_failed);
    EXPECT_EQ(lost, 0);
    EXPECT_TRUE(store.unreferencedChunks().empty());
}

TEST(TraceSpillStore, UnreferencedChunksFindsAPlantedOrphan)
{
    const std::string root = tempRoot("orphans_planted");
    SpillStore store(root);
    store.write("k|i|1", sampleTrace(300), 64);
    EXPECT_TRUE(store.unreferencedChunks().empty());
    const uint64_t live = *referencedChunks(store, {"k|i|1"}).begin();
    fs::copy_file(store.chunkPath(live), store.chunkPath(0xdeadbeef));
    // Temp files and foreign names in the chunk directory are not
    // chunks.
    writeFileBytes(store.chunkPath(0xfeed) + ".tmp.1.2", "partial");
    writeFileBytes((fs::path(root) / "chunks" / "README").string(), "x");
    EXPECT_EQ(store.unreferencedChunks(),
              std::vector<uint64_t>{0xdeadbeef});
}

TEST(TraceSpillStore, RewritingTheSameTraceDeletesNoChunk)
{
    // The replaced manifest references exactly the chunks the new one
    // does, so none of them is an orphan to delete.
    const std::string root = tempRoot("orphans_same");
    SpillStore store(root);
    const Trace t = sampleTrace(500);
    store.write("memo-sim", t, 64);
    const size_t files = countChunkFiles(root);
    store.write("memo-sim", t, 64);
    EXPECT_EQ(countChunkFiles(root), files);
    EXPECT_EQ(referencedChunks(store, {"memo-sim"}).size(), files);
    EXPECT_TRUE(store.unreferencedChunks().empty());
    expectTracesEqual(t, store.read("memo-sim"));
}

TEST(TraceSpillStore, RootThatIsAFileIsAnErrorNamingIt)
{
    // A store cannot be made under a regular file: the error names the
    // path, and the file is left as it was.
    const std::string root = tempRoot("fileroot");
    fs::create_directories(fs::path(root).parent_path());
    writeFileBytes(root, "not a directory");
    try {
        SpillStore store(root);
        FAIL() << "a store opened under a regular file";
    } catch (const SpillError &e) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "spill store: cannot create directories under " +
                          root + ": ",
                      0),
                  0u)
            << e.what();
    }
    EXPECT_THROW(SpillStore::existing(root), SpillError);
    EXPECT_EQ(readFileBytes(root), "not a directory");
    fs::remove(root);
}

TEST(TraceFileIo, OutcomesNameTheOperationAndPath)
{
    std::string root = tempRoot("fileio");
    fs::create_directories(root);
    const std::string a = root + "/a", b = root + "/b";
    ASSERT_TRUE(writeWholeFile(a, "bytes").ok());
    ASSERT_TRUE(renameFile(a, b).ok());
    std::string got;
    ASSERT_TRUE(readWholeFile(b, got).ok());
    EXPECT_EQ(got, "bytes");

    EXPECT_EQ(readWholeFile(a, got).error, "cannot open " + a);
    EXPECT_EQ(readWholeFile(root, got).error, "read error on " + root);
    const std::string nodir = root + "/no/such/dir";
    EXPECT_EQ(writeWholeFile(nodir, "x").error, "cannot create " + nodir);
    IoStatus st = renameFile(a, b);
    EXPECT_EQ(st.error.rfind("rename to " + b + " failed: ", 0), 0u)
        << st.error;
}

TEST(TraceFileIo, ShortWriteIsReported)
{
    // Opening /dev/full succeeds; only the flush on close fails.
    EXPECT_EQ(writeWholeFile("/dev/full", "bytes").error,
              "write failed on /dev/full");
}

TEST(TraceFileIo, EmptyWriteTruncatesToAnEmptyFile)
{
    std::string root = tempRoot("fileio_empty");
    fs::create_directories(root);
    const std::string a = root + "/a";
    ASSERT_TRUE(writeWholeFile(a, "earlier contents").ok());
    ASSERT_TRUE(writeWholeFile(a, "").ok());
    std::string got = "stale";
    ASSERT_TRUE(readWholeFile(a, got).ok());
    EXPECT_TRUE(got.empty()) << got;
}

// ---------------------------------------------------------------------------
// TraceCache disk tier.
// ---------------------------------------------------------------------------

exec::TraceKey
cacheKey(const std::string &name)
{
    exec::TraceKey k;
    k.workload = name;
    k.image = "img";
    k.crop = 16;
    return k;
}

TEST(TraceCacheSpill, SpillsOnEvictionAndAdmitsOnMiss)
{
    // Budget of one byte: each insertion evicts every other entry.
    exec::TraceCache cache(1);
    cache.setSpillDir(tempRoot("cache"));

    int gen1 = 0, gen2 = 0;
    auto k1 = cacheKey("w1"), k2 = cacheKey("w2");
    auto g1 = [&] { gen1++; return sampleTrace(400); };
    auto g2 = [&] { gen2++; return sampleTrace(900); };

    auto t1 = cache.get(k1, g1); // generated
    auto t2 = cache.get(k2, g2); // generated; evicts + spills k1
    EXPECT_EQ(gen1, 1);
    EXPECT_EQ(gen2, 1);
    EXPECT_GE(cache.spills(), 1u);
    EXPECT_GT(cache.spilledBytes(), 0u);

    auto t1b = cache.get(k1, g1); // admitted from disk, not generated
    EXPECT_EQ(gen1, 1);
    EXPECT_EQ(cache.admits(), 1u);
    EXPECT_EQ(cache.misses(), cache.generated() + cache.admits());
    EXPECT_EQ(cache.spillErrors(), 0u);
    expectTracesEqual(*t1, *t1b);

    // The spilled trace is discoverable under the documented key.
    SpillStore store(cache.spillDir());
    EXPECT_TRUE(store.contains(exec::spillKeyOf(k1)));
}

TEST(TraceCacheSpill, SpillErrorFallsBackToGenerator)
{
    exec::TraceCache cache(1);
    cache.setSpillDir(tempRoot("cachebad"));

    int gen1 = 0;
    auto k1 = cacheKey("w1");
    auto g1 = [&] { gen1++; return sampleTrace(400); };
    auto t1 = cache.get(k1, g1);
    cache.get(cacheKey("w2"), [&] { return sampleTrace(900); });
    ASSERT_GE(cache.spills(), 1u);

    // Corrupt the spilled copy on disk, then miss on k1 again.
    SpillStore store(cache.spillDir());
    TraceManifest m = store.manifest(exec::spillKeyOf(k1));
    std::string path = store.chunkPath(m.col(TraceColumn::Cls)[0].hash);
    std::string bytes = readFileBytes(path);
    bytes[bytes.size() - 1] =
        static_cast<char>(bytes[bytes.size() - 1] ^ 1);
    writeFileBytes(path, bytes);

    auto t1b = cache.get(k1, g1);
    EXPECT_EQ(gen1, 2); // regenerated, not trusted from disk
    EXPECT_GE(cache.spillErrors(), 1u);
    expectTracesEqual(*t1, *t1b);
}

TEST(TraceCacheSpill, CorruptManifestCountsAsSpillError)
{
    // A spilled key whose manifest is damaged is a disk defect, not a
    // clean miss: the cache regenerates and counts it.
    exec::TraceCache cache(1);
    cache.setSpillDir(tempRoot("cachebadman"));

    int gen1 = 0;
    auto k1 = cacheKey("w1");
    auto g1 = [&] { gen1++; return sampleTrace(400); };
    auto t1 = cache.get(k1, g1);
    cache.get(cacheKey("w2"), [&] { return sampleTrace(900); });
    ASSERT_GE(cache.spills(), 1u);
    ASSERT_EQ(cache.spillErrors(), 0u);

    SpillStore store(cache.spillDir());
    std::string path = store.manifestPath(exec::spillKeyOf(k1));
    std::string bytes = readFileBytes(path);
    bytes[10] = static_cast<char>(bytes[10] ^ 0x40);
    writeFileBytes(path, bytes);

    auto t1b = cache.get(k1, g1);
    EXPECT_EQ(gen1, 2); // one regeneration
    EXPECT_GE(cache.spillErrors(), 1u);
    EXPECT_EQ(cache.admits(), 0u);
    expectTracesEqual(*t1, *t1b);
}

TEST(TraceCacheSpill, EvictingATraceAlreadyOnDiskWritesNothing)
{
    // A victim whose key the disk tier already holds is not written
    // again: the eviction costs no chunk or manifest write.
    exec::TraceCache cache(1);
    cache.setSpillDir(tempRoot("cachedurable"));
    auto k1 = cacheKey("w1");
    SpillStore(cache.spillDir()).write(exec::spillKeyOf(k1),
                                       sampleTrace(400));

    int gen1 = 0;
    auto t1 = cache.get(k1, [&] { gen1++; return sampleTrace(400); });
    EXPECT_EQ(gen1, 0); // admitted from disk
    EXPECT_EQ(cache.admits(), 1u);

    cache.get(cacheKey("w2"), [&] { return sampleTrace(900); });
    EXPECT_EQ(cache.spills(), 0u); // k1 evicted, already durable
    EXPECT_EQ(cache.spilledBytes(), 0u);

    cache.get(k1, [&] { gen1++; return sampleTrace(400); });
    EXPECT_EQ(gen1, 0);
    EXPECT_EQ(cache.spills(), 1u); // w2 evicted, written once
    EXPECT_EQ(cache.spillErrors(), 0u);
}

TEST(TraceCacheSpill, ClearLeavesDiskTierAdmittable)
{
    exec::TraceCache cache(1u << 30);
    cache.setSpillDir(tempRoot("cacheclear"));

    int gen = 0;
    auto k = cacheKey("w");
    auto t0 = cache.get(k, [&] { gen++; return sampleTrace(500); });

    // Seed the disk tier directly (clear() never writes; only
    // eviction does) and drop the resident entry.
    SpillStore(cache.spillDir()).write(exec::spillKeyOf(k), *t0);
    cache.clear();
    EXPECT_EQ(cache.entries(), 0u);

    auto t1 = cache.get(k, [&] { gen++; return sampleTrace(500); });
    EXPECT_EQ(gen, 1); // served by the disk tier
    EXPECT_EQ(cache.admits(), 1u);
    expectTracesEqual(*t0, *t1);
}

TEST(TraceCacheSpill, V1StoreRegeneratesTheGeneratorsTrace)
{
    exec::TraceCache cache(1u << 30);
    const std::string root = tempRoot("cachev1");
    writeStoreFiles(root, kV1Store);
    cache.setSpillDir(root);
    ASSERT_EQ(exec::spillKeyOf(cacheKey("w1")), kV1Key);

    int gen = 0;
    auto generate = [&] { gen++; return handTrace(); };

    // Files at v1 names: a clean miss.
    auto t1 = cache.get(cacheKey("w1"), generate);
    EXPECT_EQ(gen, 1);
    EXPECT_EQ(cache.spillErrors(), 0u);
    expectTracesEqual(*t1, handTrace());

    // A v1 manifest at the current name: a counted disk defect.
    cache.clear();
    placeV1ManifestAtCurrentName(root);
    auto t2 = cache.get(cacheKey("w1"), generate);
    EXPECT_EQ(gen, 2);
    EXPECT_EQ(cache.spillErrors(), 1u);
    EXPECT_EQ(cache.admits(), 0u);
    expectTracesEqual(*t2, handTrace());
}

TEST(TraceCacheSpill, V2StoreRegeneratesTheGeneratorsTrace)
{
    for (const OldStore &old : kOldStores) {
        const std::string v = std::to_string(old.version);
        SCOPED_TRACE("version " + v);
        exec::TraceCache cache(1u << 30);
        const std::string root = tempRoot("cachev" + v);
        writeStoreFiles(root, old.files);
        cache.setSpillDir(root);
        const exec::TraceKey key = cacheKey("w" + v);
        ASSERT_EQ(exec::spillKeyOf(key), old.key);

        int gen = 0;
        auto generate = [&] { gen++; return old.trace(); };

        // The old manifest at the key's name: a counted disk defect.
        auto t1 = cache.get(key, generate);
        EXPECT_EQ(gen, 1);
        EXPECT_EQ(cache.spillErrors(), 1u);
        EXPECT_EQ(cache.admits(), 0u);
        expectTracesEqual(*t1, old.trace());

        // Evicted, the trace is spilled over the old files, and the
        // next miss admits it from disk.
        cache.setBudgetBytes(1);
        cache.get(cacheKey("other"), [] { return sampleTrace(100); });
        EXPECT_EQ(cache.spills(), 1u);
        auto t2 = cache.get(key, generate);
        EXPECT_EQ(gen, 1);
        EXPECT_EQ(cache.admits(), 1u);
        EXPECT_EQ(cache.spillErrors(), 1u);
        expectTracesEqual(*t2, old.trace());
    }
}

// ---------------------------------------------------------------------------
// Replaying a trace read back from the store (memo-sim --load-trace).
// ---------------------------------------------------------------------------

TEST(TraceSpillReplay, StoredTraceReplaysLikeTheRecordedOne)
{
    const MmKernel &kernel = mmKernelByName(sweepKernelNames()[0]);
    Trace trace = traceMmKernel(kernel, standardImages()[0].image, 32);
    ASSERT_GT(trace.size(), 0u);

    SpillStore store(tempRoot("replay"));
    // Small chunks put many chunk seams inside each class's columns.
    store.write("k|i|32", trace, 512);
    Trace loaded = store.read("k|i|32");

    for (unsigned entries : {8u, 64u, 1024u}) {
        for (unsigned ways : {1u, 4u}) {
            MemoConfig cfg;
            cfg.entries = entries;
            cfg.ways = ways;
            MemoBank mem = MemoBank::standard(cfg);
            MemoBank disk = MemoBank::standard(cfg);
            replayMemo(trace, mem);
            replayMemo(loaded, disk);

            for (Operation op : {Operation::IntMul, Operation::FpMul,
                                 Operation::FpDiv}) {
                const MemoStats &a = mem.table(op)->stats();
                const MemoStats &b = disk.table(op)->stats();
                EXPECT_EQ(a.lookups, b.lookups);
                EXPECT_EQ(a.hits, b.hits);
                EXPECT_EQ(a.misses, b.misses);
                EXPECT_EQ(a.insertions, b.insertions);
                EXPECT_EQ(a.evictions, b.evictions);
            }
            UnitHits ha = hitsOf(mem);
            UnitHits hb = hitsOf(disk);
            EXPECT_EQ(ha.intMul, hb.intMul);
            EXPECT_EQ(ha.fpMul, hb.fpMul);
            EXPECT_EQ(ha.fpDiv, hb.fpDiv);
        }
    }
}

TEST(TraceSpillReplay, StoredTraceFoldsTheSameRegistryCounters)
{
    // A replay of the trace read back from the store publishes exactly
    // the registry counters a replay of the recorded trace does.
    const MmKernel &kernel = mmKernelByName(sweepKernelNames()[0]);
    Trace trace = traceMmKernel(kernel, standardImages()[0].image, 32);
    ASSERT_GT(trace.size(), 0u);
    SpillStore store(tempRoot("replayfold"));
    store.write("k|i|32", trace, 512);
    Trace loaded = store.read("k|i|32");

    auto replayCounters = [](const obs::Snapshot &snap) {
        std::map<std::string, uint64_t> out;
        for (const auto &[name, v] : snap.counters)
            if (name.starts_with("analysis.replay.") ||
                name.starts_with("core.table."))
                out.emplace(name, v);
        return out;
    };

    MemoConfig cfg;
    cfg.entries = 64;
    cfg.ways = 4;
    auto &reg = obs::StatsRegistry::global();

    reg.reset();
    MemoBank mem = MemoBank::standard(cfg);
    replayMemo(trace, mem);
    auto memCounters = replayCounters(reg.snapshot());

    reg.reset();
    MemoBank disk = MemoBank::standard(cfg);
    replayMemo(loaded, disk);
    obs::Snapshot diskSnap = reg.snapshot();
    reg.reset();

    EXPECT_EQ(memCounters, replayCounters(diskSnap));
    EXPECT_EQ(diskSnap.counter("analysis.replay.runs"), 1u);
    EXPECT_EQ(diskSnap.counter("analysis.replay.instructions"),
              trace.size());
    EXPECT_GT(diskSnap.counter("core.table." +
                               std::string(operationName(
                                   Operation::FpMul)) +
                               ".lookups"),
              0u);
}

// ---------------------------------------------------------------------------
// Acceptance: the full Figure 3 sweep under a 64 MB budget must be
// bit-identical to the checked-in golden, which was generated with an
// unlimited budget — the spill/admit cycle may not perturb a single
// ULP of any reproduced paper number.
// ---------------------------------------------------------------------------

TEST(TraceSpillSweep, LowBudget64MbMatchesUnlimitedGoldens)
{
    const check::GoldenDoc *fig3 = nullptr;
    for (const check::GoldenDoc &d : check::goldenDocs())
        if (d.name == "fig3")
            fig3 = &d;
    ASSERT_NE(fig3, nullptr);

    exec::TraceCache &cache = exec::TraceCache::instance();
    cache.clear();
    cache.setBudgetBytes(64ull << 20);
    cache.setSpillDir(tempRoot("sweep64"));

    // Pass 1 populates the disk tier: the sweep's working set is far
    // over 64 MB, so evicted traces stream out as chunks.
    std::string capped = fig3->produce();
    uint64_t spills = cache.spills();
    uint64_t generated = cache.generated();

    // Pass 2 is served from disk: residents are dropped (the disk
    // tier survives clear()), so every lookup misses and admits the
    // spilled copy. Only keys still resident — never evicted — at
    // the end of pass 1 (at most ~64 MB worth) may regenerate.
    cache.clear();
    std::string admitted = fig3->produce();

    uint64_t admits = cache.admits();
    uint64_t regenerated = cache.generated() - generated;
    uint64_t spill_errors = cache.spillErrors();

    // Restore the process-wide defaults before asserting, so a
    // failure here cannot leak a 64 MB budget into later tests when
    // the whole binary runs in one process.
    cache.setSpillDir("");
    cache.setBudgetBytes(0);
    cache.clear();

    EXPECT_GT(spills, 0u) << "64 MB budget never spilled";
    EXPECT_GT(admits, 0u) << "rerun never admitted from disk";
    EXPECT_GT(admits, regenerated)
        << "rerun mostly regenerated instead of using the disk tier";
    EXPECT_EQ(spill_errors, 0u);

    std::string golden = readFileBytes(
        std::string(MEMO_SOURCE_DIR) + "/tests/golden/fig3.json");
    EXPECT_EQ(capped, golden)
        << "capped-memory sweep diverged from the unlimited-budget "
           "golden";
    EXPECT_EQ(admitted, golden)
        << "disk-tier-served sweep diverged from the golden";
}

} // anonymous namespace
} // namespace memo
