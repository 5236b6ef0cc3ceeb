/**
 * @file
 * Tests for the out-of-core trace tier: the chunk codec and its
 * on-disk layout (trace/chunk_codec.hh, pinned field-for-field to
 * docs/TRACE_FORMAT.md), the content-addressed SpillStore
 * (round-trip, dedup, corruption detection, failed writes) and the
 * checked file I/O beneath it (trace/file_io.hh), the TraceCache disk
 * tier (spill-on-evict / admit-on-miss / SpillError fallback), the
 * streamed replay path, and the capped-memory acceptance run: the
 * full Figure 3 sweep under a 64 MB trace-cache budget must produce
 * canonical JSON bit-identical to the checked-in golden, which was
 * generated with an unlimited budget.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.hh"
#include "check/golden.hh"
#include "core/bank.hh"
#include "exec/trace_cache.hh"
#include "img/generate.hh"
#include "obs/stats.hh"
#include "trace/chunk_codec.hh"
#include "trace/file_io.hh"
#include "trace/spill.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

namespace fs = std::filesystem;

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
 * zero, denormals) so delta/zigzag wraparound paths are exercised.
 */
Trace
sampleTrace(size_t n)
{
    constexpr uint64_t edges[] = {
        0,
        1,
        ~0ull,                  // wraps the delta
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
        inst.pc = static_cast<uint32_t>(i * 4 + (i % 7) * 1000);
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

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        Instruction x = a[i];
        Instruction y = b[i];
        ASSERT_EQ(x.cls, y.cls) << "record " << i;
        ASSERT_EQ(x.pc, y.pc) << "record " << i;
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

// ---------------------------------------------------------------------------
// Format pinning: these tests ARE docs/TRACE_FORMAT.md. Any change
// that fails one of them is a format change and must bump
// kSpillFormatVersion and revise the spec.
// ---------------------------------------------------------------------------

TEST(TraceSpillFormat, NormativeConstants)
{
    // §2: version and identification.
    EXPECT_EQ(kSpillFormatVersion, 1u);
    EXPECT_EQ(std::string(kChunkMagic, 4), "MTCK");
    EXPECT_EQ(std::string(kManifestMagic, 4), "MTRM");
    EXPECT_EQ(kEncodingDeltaVarint, 1u);
    EXPECT_EQ(kChunkHeaderBytes, 24u);
    EXPECT_EQ(kManifestHeaderBytes, 36u);
    EXPECT_EQ(kDefaultChunkElems, 65536u);

    // §4: FNV-1a 64 parameters.
    EXPECT_EQ(kFnvOffset, 14695981039346656037ull);
    EXPECT_EQ(kFnvPrime, 1099511628211ull);

    // §3: the seven stored columns, their order and element widths.
    ASSERT_EQ(kNumTraceColumns, 7u);
    const struct
    {
        TraceColumn col;
        const char *name;
        unsigned width;
    } table[] = {
        {TraceColumn::Cls, "cls", 1},   {TraceColumn::Pc, "pc", 4},
        {TraceColumn::OpCls, "opCls", 1}, {TraceColumn::OpA, "opA", 8},
        {TraceColumn::OpB, "opB", 8},   {TraceColumn::OpRes, "opRes", 8},
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
    // Values {1, 2, 3}: deltas 1,1,1 -> zigzag 2,2,2 -> one varint
    // byte each. The whole file must be 24 header + 3 payload bytes.
    const uint64_t v[] = {1, 2, 3};
    EncodedChunk ch = encodeChunk(v, 3);
    const std::string &s = ch.bytes;
    ASSERT_EQ(s.size(), kChunkHeaderBytes + 3);

    EXPECT_EQ(s.substr(0, 4), "MTCK");                 // bytes 0-3
    EXPECT_EQ(u16At(s, 4), kSpillFormatVersion);       // bytes 4-5
    EXPECT_EQ(static_cast<uint8_t>(s[6]), kEncodingDeltaVarint);
    EXPECT_EQ(static_cast<uint8_t>(s[7]), 0u);         // reserved
    EXPECT_EQ(u32At(s, 8), 3u);                        // elemCount
    EXPECT_EQ(u32At(s, 12), 3u);                       // payloadBytes
    const std::string payload = s.substr(kChunkHeaderBytes);
    EXPECT_EQ(payload, std::string("\x02\x02\x02", 3));
    EXPECT_EQ(u64At(s, 16), fnv1a(payload.data(), payload.size()));
    EXPECT_EQ(ch.hash, u64At(s, 16));
    EXPECT_EQ(ch.elems, 3u);

    EXPECT_EQ(decodeChunk(s), std::vector<uint64_t>({1, 2, 3}));
}

TEST(TraceSpillFormat, DeltaWrapsModulo64Bits)
{
    // First delta is v - 0 = 2^64-1, i.e. signed -1, zigzag 1: a
    // single payload byte 0x01. §4's wraparound rule, byte-exact.
    const uint64_t v[] = {~0ull};
    EncodedChunk ch = encodeChunk(v, 1);
    ASSERT_EQ(ch.bytes.size(), kChunkHeaderBytes + 1);
    EXPECT_EQ(static_cast<uint8_t>(ch.bytes[kChunkHeaderBytes]), 0x01);
    EXPECT_EQ(decodeChunk(ch.bytes), std::vector<uint64_t>({~0ull}));
}

TEST(TraceSpillFormat, ChunkHashesArePinned)
{
    // The store is content-addressed: an encoder whose bytes drift
    // would orphan every spill directory already on disk. These are
    // the chunk hashes of sampleTrace(300) at chunk_elems 64 as the
    // original byte-at-a-time encoder wrote them.
    const std::vector<std::vector<uint64_t>> pinned = {
        {0x6c280e8a032afb0bull, 0xaee5463aaf9ee108ull,
         0xb038a3b82eae7964ull, 0x0a6bb79543e1d4e8ull,
         0x5a79b53b0a27a6f1ull}, // cls
        {0x3dfb95fa49d2bc67ull, 0xe8a767e299c00ec0ull,
         0x3467fec6033cf6d8ull, 0x9a04b56ad8f38913ull,
         0x58f445041906966aull}, // pc
        {0xe200d830451eced0ull, 0xc4620cc12de8dd0cull,
         0xcf0e2b58d148b900ull, 0x7c5e6f253a2c6ef0ull}, // opCls
        {0xf039b145e44d00c1ull, 0xaeb320f2ecc0d653ull,
         0x609b10afea03db71ull, 0xd753ce9cc2970b66ull}, // opA
        {0xc5237e4821dd1d06ull, 0x3955d573e8616272ull,
         0x9b559d54e6f19af0ull, 0x0422dd2e88e9358eull}, // opB
        {0x90dc30a460ef6d3aull, 0xb7e706e65742f165ull,
         0xb9decbeb6194c696ull, 0x87c2058cfefebc7dull}, // opRes
        {0x726cbd3846fa3d48ull},                        // addr
    };
    EncodedTrace enc = encodeTraceChunked(sampleTrace(300), 64);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        std::vector<uint64_t> got;
        for (const EncodedChunk &ch : enc.cols[c].chunks) {
            got.push_back(ch.hash);
            EXPECT_EQ(u64At(ch.bytes, 16), ch.hash);
        }
        EXPECT_EQ(got, pinned[c])
            << traceColumnName(static_cast<TraceColumn>(c));
    }
}

TEST(TraceSpillFormat, ManifestLayout)
{
    Trace t;
    Instruction mul;
    mul.cls = InstClass::IntMul;
    mul.pc = 4;
    mul.a = 2;
    mul.b = 3;
    mul.result = 6;
    t.push(mul);
    Instruction ld;
    ld.cls = InstClass::Load;
    ld.pc = 8;
    ld.addr = 0x1000;
    t.push(ld);
    Instruction alu;
    alu.cls = InstClass::IntAlu;
    alu.pc = 12;
    t.push(alu);

    const std::string key = "kern|img|32";
    EncodedTrace enc = encodeTraceChunked(t, 4);
    std::string s = encodeManifest(manifestOf(key, enc));

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
        const EncodedColumn &col =
            enc.col(static_cast<TraceColumn>(c));
        ASSERT_EQ(u32At(s, off), col.chunks.size());
        off += 4;
        for (const EncodedChunk &ch : col.chunks) {
            EXPECT_EQ(u64At(s, off), ch.hash);
            EXPECT_EQ(u32At(s, off + 8), ch.elems);
            off += 12;
        }
    }

    // Trailing manifestHash covers every preceding byte.
    ASSERT_EQ(off + 8, s.size());
    EXPECT_EQ(u64At(s, off), fnv1a(s.data(), off));

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
        EXPECT_EQ(enc.records, n);
        Trace back = decodeTraceChunked(enc);
        expectTracesEqual(t, back);
    }
}

TEST(TraceSpillCodec, RoundTripDefaultChunking)
{
    Trace t = sampleTrace(1000);
    expectTracesEqual(t, decodeTraceChunked(encodeTraceChunked(t)));
}

TEST(TraceSpillCodec, ChunkRejectsEveryHeaderDefect)
{
    const uint64_t v[] = {10, 20, 30, 40};
    const std::string good = encodeChunk(v, 4).bytes;
    EXPECT_NO_THROW(decodeChunk(good));

    auto mutate = [&](size_t off, char to) {
        std::string bad = good;
        bad[off] = to;
        return bad;
    };
    EXPECT_THROW(decodeChunk(mutate(0, 'X')), SpillError);  // magic
    EXPECT_THROW(decodeChunk(mutate(4, 2)), SpillError);    // version
    EXPECT_THROW(decodeChunk(mutate(6, 2)), SpillError);    // encoding
    EXPECT_THROW(decodeChunk(mutate(7, 1)), SpillError);    // reserved
    EXPECT_THROW(decodeChunk(mutate(8, 3)), SpillError);    // elemCount
    EXPECT_THROW(decodeChunk(mutate(12, 9)), SpillError);   // payloadBytes
    EXPECT_THROW(decodeChunk(mutate(16, 0)), SpillError);   // contentHash
    EXPECT_THROW(decodeChunk(mutate(kChunkHeaderBytes, 0x7f)),
                 SpillError);                               // payload
    EXPECT_THROW(decodeChunk(good.substr(0, good.size() - 1)),
                 SpillError);                               // truncation
    EXPECT_THROW(decodeChunk(good.substr(0, 10)), SpillError);
    EXPECT_THROW(decodeChunk(std::string_view()), SpillError);
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

/** What decoding @p chunk throws, or "" when it decodes. */
std::string
chunkError(std::string_view chunk)
{
    try {
        decodeChunk(chunk);
    } catch (const SpillError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceSpillCodec, ChunkReportsFailuresInSpecOrder)
{
    // 1 << 13 zigzags to a 3-byte varint; dropping its last byte
    // leaves a truncated varint. §4 puts the hash check first, so the
    // decoder must report the hash even though it meets the bad varint
    // first, and the varint only once the hash matches.
    const uint64_t v[] = {uint64_t{1} << 13};
    const std::string good = encodeChunk(v, 1).bytes;
    ASSERT_EQ(good.size(), kChunkHeaderBytes + 3);
    std::string cut = good.substr(0, good.size() - 1);
    const uint64_t cutHash =
        fnv1a(cut.data() + kChunkHeaderBytes, 2);

    EXPECT_EQ(chunkError(withHeader(cut, 1, 2, u64At(good, 16))),
              "chunk: content hash mismatch");
    EXPECT_EQ(chunkError(withHeader(cut, 1, 2, cutHash)),
              "chunk payload: truncated varint");

    // A count the payload could never hold: hash first, then count.
    const uint64_t three[] = {1, 2, 3};
    const std::string small = encodeChunk(three, 3).bytes;
    EXPECT_EQ(chunkError(withHeader(small, 2, 3, u64At(small, 16))),
              "chunk: element count mismatch (header says 2, payload "
              "holds 3)");
    EXPECT_EQ(chunkError(withHeader(small, 0xffffffffu, 3, 0)),
              "chunk: content hash mismatch");
}

TEST(TraceSpillCodec, ImpossibleCountThrowsWithoutAllocating)
{
    // elemCount 0xffffffff over a 3-byte payload: each varint takes at
    // least one byte, so the decoder must reject it before it sizes
    // the output for four billion elements.
    const uint64_t v[] = {1, 2, 3};
    const std::string good = encodeChunk(v, 3).bytes;
    const std::string bad =
        withHeader(good, 0xffffffffu, 3, u64At(good, 16));
    std::vector<uint64_t> out;
    try {
        decodeChunkInto(bad, out, "opA");
        FAIL() << "decoded an impossible count";
    } catch (const SpillError &e) {
        EXPECT_STREQ(e.what(), "opA: element count mismatch (header says "
                               "4294967295, payload holds 3)");
    }
    EXPECT_EQ(out.capacity(), 0u);
}

TEST(TraceSpillCodec, TypedDecodeAppendsAndChecksWidth)
{
    const uint64_t v[] = {7, 255, 0};
    const std::string ch = encodeChunk(v, 3).bytes;
    std::vector<uint8_t> narrow = {42};
    decodeChunkInto(ch, narrow, "cls");
    EXPECT_EQ(narrow, (std::vector<uint8_t>{42, 7, 255, 0}));

    const uint64_t wide[] = {1, 256};
    std::vector<uint8_t> keep = {9};
    try {
        decodeChunkInto(encodeChunk(wide, 2).bytes, keep, "cls");
        FAIL() << "256 decoded into a u8 column";
    } catch (const SpillError &e) {
        EXPECT_STREQ(e.what(), "cls: element exceeds column width");
    }
    EXPECT_EQ(keep, (std::vector<uint8_t>{9})); // untouched on failure
}

/** The seven stored columns of a hand-built trace, as u64 values. */
struct HandTrace
{
    std::vector<uint64_t> cls, pc, opCls, opA, opB, opRes, addr;
};

uint64_t
clsOf(InstClass c)
{
    return static_cast<uint64_t>(c);
}

/** IntMul, Load, IntAlu: one operand record and one address record. */
HandTrace
validHand()
{
    HandTrace h;
    h.cls = {clsOf(InstClass::IntMul), clsOf(InstClass::Load),
             clsOf(InstClass::IntAlu)};
    h.pc = {4, 8, 12};
    h.opCls = {clsOf(InstClass::IntMul)};
    h.opA = {2};
    h.opB = {3};
    h.opRes = {6};
    h.addr = {0x1000};
    return h;
}

/** Encode @p h in 2-element chunks; counts follow the column lengths. */
EncodedTrace
encodeHand(const HandTrace &h)
{
    EncodedTrace enc;
    enc.records = h.cls.size();
    enc.ops = h.opCls.size();
    enc.addrs = h.addr.size();
    const std::vector<uint64_t> *cols[] = {&h.cls, &h.pc,    &h.opCls,
                                           &h.opA, &h.opB,   &h.opRes,
                                           &h.addr};
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        const std::vector<uint64_t> &v = *cols[c];
        EncodedColumn &col = enc.cols[c];
        col.elems = v.size();
        for (size_t base = 0; base < v.size(); base += 2) {
            auto len = static_cast<uint32_t>(
                std::min<size_t>(2, v.size() - base));
            col.chunks.push_back(encodeChunk(v.data() + base, len));
        }
    }
    return enc;
}

/** What decodeTraceChunked throws for @p h, or "" when it decodes. */
std::string
traceError(const HandTrace &h)
{
    try {
        decodeTraceChunked(encodeHand(h));
    } catch (const SpillError &e) {
        return e.what();
    }
    return "";
}

TEST(TraceSpillCodec, AdoptChecksEveryCrossColumnRule)
{
    const HandTrace good = validHand();
    ASSERT_EQ(traceError(good), "");
    Trace back = decodeTraceChunked(encodeHand(good));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].result, 6u);
    EXPECT_EQ(back[1].addr, 0x1000u);
    EXPECT_EQ(back[2].pc, 12u);

    HandTrace h = good;
    h.cls[2] = numInstClasses; // fits a u8, names no class
    EXPECT_EQ(traceError(h), "cls: value " +
                                 std::to_string(numInstClasses) +
                                 " is not an InstClass");

    h = good;
    h.opCls = {clsOf(InstClass::FpMul)};
    EXPECT_EQ(traceError(h),
              "opCls: disagrees with cls column at operand record 0");

    h = good; // a second IntMul with no operand words behind it
    h.cls.insert(h.cls.begin(), clsOf(InstClass::IntMul));
    h.pc.push_back(16);
    EXPECT_EQ(traceError(h), "opCls: column exhausted early");

    h = good; // a second Load with no address behind it
    h.cls.insert(h.cls.begin(), clsOf(InstClass::Load));
    h.pc.push_back(16);
    EXPECT_EQ(traceError(h), "addr: column exhausted early");

    h = good;
    h.opCls.push_back(clsOf(InstClass::IntMul));
    h.opA.push_back(1);
    h.opB.push_back(1);
    h.opRes.push_back(1);
    EXPECT_EQ(traceError(h), "trace: class column implies 1 operand "
                             "records, operand columns hold 2");

    h = good;
    h.addr.push_back(0x2000);
    EXPECT_EQ(traceError(h), "trace: class column implies 1 address "
                             "records, addr column holds 2");

    h = good;
    h.pc[1] = uint64_t{1} << 32;
    EXPECT_EQ(traceError(h), "pc: element exceeds column width");

    h = good;
    h.cls[2] = 256;
    EXPECT_EQ(traceError(h), "cls: element exceeds column width");
}

TEST(TraceSpillCodec, ManifestRejectsCorruption)
{
    Trace t = sampleTrace(40);
    std::string good =
        encodeManifest(manifestOf("a|b|1", encodeTraceChunked(t, 8)));
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
    SpillStore::WriteStats first = store.write("k|i|1", t, 32);
    EXPECT_GT(first.chunksWritten, 0u);
    EXPECT_EQ(first.chunksShared, 0u);

    SpillStore::WriteStats second = store.write("k|i|1", t, 32);
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
    bytes[4] = 2; // future format version
    writeFileBytes(path, bytes);
    EXPECT_THROW(store.read("k|i|1"), SpillError);
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
    std::string path = store.chunkPath(m.col(TraceColumn::Pc)[0].hash);
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

// ---------------------------------------------------------------------------
// Streamed replay off the disk tier.
// ---------------------------------------------------------------------------

TEST(TraceSpillReplay, StreamedMatchesInMemoryReplay)
{
    const MmKernel &kernel = mmKernelByName(sweepKernelNames()[0]);
    Trace trace = traceMmKernel(kernel, standardImages()[0].image, 32);
    ASSERT_GT(trace.size(), 0u);

    SpillStore store(tempRoot("replay"));
    // Small chunks force many probeBlock boundaries distinct from
    // replayMemo's, which the batch-probe contract must absorb.
    store.write("k|i|32", trace, 512);

    for (unsigned entries : {8u, 64u, 1024u}) {
        for (unsigned ways : {1u, 4u}) {
            MemoConfig cfg;
            cfg.entries = entries;
            cfg.ways = ways;
            MemoBank mem = MemoBank::standard(cfg);
            MemoBank disk = MemoBank::standard(cfg);
            replayMemo(trace, mem);
            replayMemoStreamed(store, "k|i|32", disk);

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

TEST(TraceSpillReplay, StreamedFoldsSameRegistryCounters)
{
    // Both replay entry points fold their activity into the global
    // registry: one run, the trace's record count, and each table's
    // counter deltas. The streamed path must publish exactly what
    // the in-memory path does for the same trace.
    const MmKernel &kernel = mmKernelByName(sweepKernelNames()[0]);
    Trace trace = traceMmKernel(kernel, standardImages()[0].image, 32);
    ASSERT_GT(trace.size(), 0u);
    SpillStore store(tempRoot("replayfold"));
    store.write("k|i|32", trace, 512);

    auto replayCounters = [](const obs::Snapshot &s) {
        std::map<std::string, uint64_t> out;
        for (const auto &[name, v] : s.counters)
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
    replayMemoStreamed(store, "k|i|32", disk);
    obs::Snapshot diskSnap = reg.snapshot();
    reg.reset();

    EXPECT_EQ(memCounters, replayCounters(diskSnap));
    EXPECT_EQ(diskSnap.counter("analysis.replay.runs"), 1u);
    EXPECT_EQ(diskSnap.counter("analysis.replay.instructions"),
              trace.size());
    for (Operation op : {Operation::IntMul, Operation::FpMul,
                         Operation::FpDiv}) {
        const MemoStats &s = disk.table(op)->stats();
        std::string prefix =
            "core.table." + std::string(operationName(op)) + ".";
        EXPECT_EQ(diskSnap.counter(prefix + "lookups"), s.lookups);
        EXPECT_EQ(diskSnap.counter(prefix + "hits"), s.hits);
        EXPECT_EQ(diskSnap.counter(prefix + "insertions"), s.insertions);
    }
}

TEST(TraceSpillReplay, MissingKeyThrows)
{
    SpillStore store(tempRoot("replaymissing"));
    MemoConfig cfg;
    MemoBank bank = MemoBank::standard(cfg);
    EXPECT_THROW(replayMemoStreamed(store, "no|such|0", bank),
                 SpillError);
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
