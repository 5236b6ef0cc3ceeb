#include "chunk_codec.hh"

#include <algorithm>
#include <cstring>

namespace memo
{

namespace
{

// --- little-endian scalar helpers -----------------------------------------

void
putU16(std::string &out, uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked little-endian reads over a byte view. */
class ByteReader
{
  public:
    ByteReader(std::string_view bytes, const char *what)
        : bytes_(bytes), what_(what)
    {
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return bytes_.size() - pos_; }

    const char *
    take(size_t n)
    {
        if (remaining() < n)
            throw SpillError(std::string(what_) +
                             ": truncated (need " + std::to_string(n) +
                             " bytes at offset " + std::to_string(pos_) +
                             ", have " + std::to_string(remaining()) +
                             ")");
        const char *p = bytes_.data() + pos_;
        pos_ += n;
        return p;
    }

    uint8_t
    u8()
    {
        return static_cast<uint8_t>(*take(1));
    }

    uint16_t
    u16()
    {
        const char *p = take(2);
        return static_cast<uint16_t>(
            static_cast<uint8_t>(p[0]) |
            (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8));
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        const char *p = take(4);
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i]))
                 << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        const char *p = take(8);
        for (int i = 0; i < 8; i++)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i]))
                 << (8 * i);
        return v;
    }

  private:
    std::string_view bytes_;
    const char *what_;
    size_t pos_ = 0;
};

// --- varint / zigzag ------------------------------------------------------

uint64_t
zigzag(uint64_t delta)
{
    return (delta << 1) ^
           static_cast<uint64_t>(static_cast<int64_t>(delta) >> 63);
}

uint64_t
unzigzag(uint64_t zz)
{
    return (zz >> 1) ^ (~(zz & 1) + 1);
}

/**
 * Reads one LEB128 varint from [p, end) into @p v, folding each byte
 * into the FNV-1a state @p h. Returns nullptr on success, else what
 * was malformed (the bytes read so far are hashed either way).
 */
inline const char *
getVarint(const unsigned char *&p, const unsigned char *end, uint64_t &h,
          uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end)
            return "truncated varint";
        const unsigned char byte = *p++;
        h = (h ^ byte) * kFnvPrime;
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return nullptr;
    }
    return "varint exceeds 64 bits";
}

/** Fixed chunk header fields, verified up to the payload size. */
struct ChunkHeader
{
    uint32_t elems = 0;
    uint32_t payloadBytes = 0;
    uint64_t hash = 0;
};

/** §4's header checks, in order: everything before the content hash. */
ChunkHeader
readChunkHeader(std::string_view chunk)
{
    ByteReader r(chunk, "chunk header");
    const char *magic = r.take(sizeof(kChunkMagic));
    if (std::memcmp(magic, kChunkMagic, sizeof(kChunkMagic)) != 0)
        throw SpillError("chunk header: bad magic");
    uint16_t version = r.u16();
    if (version != kSpillFormatVersion)
        throw SpillError("chunk header: unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSpillFormatVersion) + ")");
    uint8_t encoding = r.u8();
    if (encoding != kEncodingDeltaVarint)
        throw SpillError("chunk header: unknown encoding id " +
                         std::to_string(encoding));
    if (r.u8() != 0)
        throw SpillError("chunk header: nonzero reserved byte");
    ChunkHeader h;
    h.elems = r.u32();
    h.payloadBytes = r.u32();
    h.hash = r.u64();
    if (chunk.size() - kChunkHeaderBytes != h.payloadBytes)
        throw SpillError(
            "chunk: payload size mismatch (header says " +
            std::to_string(h.payloadBytes) + ", file has " +
            std::to_string(chunk.size() - kChunkHeaderBytes) + ")");
    return h;
}

} // anonymous namespace

const char *
traceColumnName(TraceColumn col)
{
    switch (col) {
      case TraceColumn::Cls:
        return "cls";
      case TraceColumn::Pc:
        return "pc";
      case TraceColumn::OpCls:
        return "opCls";
      case TraceColumn::OpA:
        return "opA";
      case TraceColumn::OpB:
        return "opB";
      case TraceColumn::OpRes:
        return "opRes";
      case TraceColumn::Addr:
        return "addr";
    }
    return "?";
}

unsigned
traceColumnWidth(TraceColumn col)
{
    switch (col) {
      case TraceColumn::Cls:
      case TraceColumn::OpCls:
        return 1;
      case TraceColumn::Pc:
        return 4;
      default:
        return 8;
    }
}

namespace
{

/**
 * Encode @p n elements of @p v, zero-extended to u64, as one chunk.
 * The payload goes into @p scratch, sized for the worst case of 10
 * varint bytes per element, and is hashed in the same pass.
 */
template <typename T>
EncodedChunk
encodeChunkFrom(const T *v, uint32_t n, std::vector<unsigned char> &scratch)
{
    if (scratch.size() < size_t{n} * 10)
        scratch.resize(size_t{n} * 10);
    unsigned char *out = scratch.data();
    uint64_t h = kFnvOffset;
    uint64_t prev = 0;
    for (uint32_t i = 0; i < n; i++) {
        const uint64_t x = v[i];
        uint64_t zz = zigzag(x - prev);
        prev = x;
        while (zz >= 0x80) {
            const auto byte = static_cast<unsigned char>(zz | 0x80);
            h = (h ^ byte) * kFnvPrime;
            *out++ = byte;
            zz >>= 7;
        }
        const auto byte = static_cast<unsigned char>(zz);
        h = (h ^ byte) * kFnvPrime;
        *out++ = byte;
    }
    const size_t payloadBytes = static_cast<size_t>(out - scratch.data());

    EncodedChunk c;
    c.elems = n;
    c.hash = h;
    c.bytes.reserve(kChunkHeaderBytes + payloadBytes);
    c.bytes.append(kChunkMagic, sizeof(kChunkMagic));
    putU16(c.bytes, kSpillFormatVersion);
    c.bytes.push_back(static_cast<char>(kEncodingDeltaVarint));
    c.bytes.push_back(0); // reserved
    putU32(c.bytes, n);
    putU32(c.bytes, static_cast<uint32_t>(payloadBytes));
    putU64(c.bytes, c.hash);
    c.bytes.append(reinterpret_cast<const char *>(scratch.data()),
                   payloadBytes);
    return c;
}

/** Chunk a column straight from its typed storage. */
template <typename T>
EncodedColumn
encodeColumn(const T *data, size_t n, uint32_t chunk_elems)
{
    EncodedColumn col;
    col.elems = n;
    std::vector<unsigned char> scratch;
    for (size_t base = 0; base < n; base += chunk_elems) {
        uint32_t len = static_cast<uint32_t>(
            std::min<size_t>(chunk_elems, n - base));
        col.chunks.push_back(encodeChunkFrom(data + base, len, scratch));
    }
    return col;
}

/**
 * Chunk the four operand columns in trace order. The store keeps
 * operands per class, so each chunk's words are gathered by walking
 * the class column; chunk boundaries fall exactly where encodeColumn
 * would put them.
 */
void
encodeOperandColumns(const TraceStore &s, uint32_t chunk_elems,
                     EncodedTrace &enc)
{
    std::vector<uint8_t> cls;
    std::vector<uint64_t> a, b, r;
    std::vector<unsigned char> scratch;
    auto flush = [&] {
        const auto n = static_cast<uint32_t>(cls.size());
        enc.col(TraceColumn::OpCls).chunks.push_back(
            encodeChunkFrom(cls.data(), n, scratch));
        enc.col(TraceColumn::OpA).chunks.push_back(
            encodeChunkFrom(a.data(), n, scratch));
        enc.col(TraceColumn::OpB).chunks.push_back(
            encodeChunkFrom(b.data(), n, scratch));
        enc.col(TraceColumn::OpRes).chunks.push_back(
            encodeChunkFrom(r.data(), n, scratch));
        cls.clear();
        a.clear();
        b.clear();
        r.clear();
    };
    for (size_t i = 0; i < s.size(); i++) {
        const auto c = static_cast<InstClass>(s.clsData()[i]);
        if (!TraceStore::hasOperands(c))
            continue;
        const Instruction inst = s.get(i);
        cls.push_back(static_cast<uint8_t>(inst.cls));
        a.push_back(inst.a);
        b.push_back(inst.b);
        r.push_back(inst.result);
        if (cls.size() == chunk_elems)
            flush();
    }
    if (!cls.empty())
        flush();
    for (TraceColumn c : {TraceColumn::OpCls, TraceColumn::OpA,
                          TraceColumn::OpB, TraceColumn::OpRes})
        enc.col(c).elems = enc.ops;
}

/**
 * Decode every chunk of column @p which into @p out, which then holds
 * exactly the column's declared element count.
 */
template <typename T>
void
decodeColumn(const EncodedTrace &enc, TraceColumn which,
             std::vector<T> &out)
{
    const EncodedColumn &col = enc.col(which);
    const char *name = traceColumnName(which);
    uint64_t declared = 0, bytes = 0;
    for (const EncodedChunk &c : col.chunks) {
        declared += c.elems;
        bytes += c.bytes.size();
    }
    if (declared != col.elems)
        throw SpillError(std::string(name) +
                         ": chunk element counts sum to " +
                         std::to_string(declared) + ", column declares " +
                         std::to_string(col.elems));
    // Every element takes at least one payload byte, so a count no
    // chunk bytes could hold never becomes an allocation.
    out.reserve(static_cast<size_t>(std::min(col.elems, bytes)));
    for (const EncodedChunk &c : col.chunks)
        decodeChunkInto(c.bytes, out, name);
    if (out.size() != col.elems)
        throw SpillError(std::string(name) + ": chunks decode to " +
                         std::to_string(out.size()) +
                         " elements, column declares " +
                         std::to_string(col.elems));
}

} // anonymous namespace

EncodedChunk
encodeChunk(const uint64_t *v, uint32_t n)
{
    std::vector<unsigned char> scratch;
    return encodeChunkFrom(v, n, scratch);
}

template <typename T>
void
decodeChunkInto(std::string_view chunk, std::vector<T> &out,
                const char *column)
{
    const ChunkHeader hdr = readChunkHeader(chunk);
    const auto *p = reinterpret_cast<const unsigned char *>(chunk.data()) +
                    kChunkHeaderBytes;
    const auto *end = p + hdr.payloadBytes;
    const size_t base = out.size();
    uint64_t h = kFnvOffset;
    const char *malformed = nullptr;
    uint64_t decoded = 0;
    uint64_t wide = 0; // OR of every value's bits above T's width

    // Each varint is at least one byte, so a count above the payload
    // size is a defect: skip straight to the checks, never allocate.
    if (hdr.elems <= hdr.payloadBytes) {
        out.resize(base + hdr.elems);
        T *dst = out.data() + base;
        uint64_t prev = 0;
        while (decoded < hdr.elems && p != end) {
            uint64_t zz;
            malformed = getVarint(p, end, h, zz);
            if (malformed)
                break;
            prev += unzigzag(zz);
            if constexpr (sizeof(T) < sizeof(uint64_t))
                wide |= prev >> (8 * sizeof(T));
            dst[decoded++] = static_cast<T>(prev);
        }
    }
    // Hash and count whatever the loop left: varints past the declared
    // count, the bytes after a malformed varint, or the whole payload
    // of an impossible count. The failures then come out in §4's
    // order however early the loop stopped.
    while (!malformed && p != end) {
        uint64_t zz;
        malformed = getVarint(p, end, h, zz);
        if (!malformed)
            decoded++;
    }
    h = fnv1a(p, static_cast<size_t>(end - p), h);

    std::string error;
    if (h != hdr.hash)
        error = std::string(column) + ": content hash mismatch";
    else if (malformed)
        error = std::string(column) + " payload: " + malformed;
    else if (decoded != hdr.elems)
        error = std::string(column) +
                ": element count mismatch (header says " +
                std::to_string(hdr.elems) + ", payload holds " +
                std::to_string(decoded) + ")";
    else if (wide)
        error = std::string(column) + ": element exceeds column width";
    if (!error.empty()) {
        out.resize(base);
        throw SpillError(error);
    }
}

template void decodeChunkInto(std::string_view, std::vector<uint8_t> &,
                              const char *);
template void decodeChunkInto(std::string_view, std::vector<uint32_t> &,
                              const char *);
template void decodeChunkInto(std::string_view, std::vector<uint64_t> &,
                              const char *);

std::vector<uint64_t>
decodeChunk(std::string_view chunk)
{
    std::vector<uint64_t> out;
    decodeChunkInto(chunk, out, "chunk");
    return out;
}

EncodedTrace
encodeTraceChunked(const Trace &trace, uint32_t chunk_elems)
{
    if (chunk_elems == 0)
        throw SpillError("encodeTraceChunked: chunk_elems must be > 0");
    const TraceStore &s = trace.store();
    EncodedTrace enc;
    enc.records = s.size();
    enc.ops = s.opCount();
    enc.addrs = s.addrCount();
    enc.col(TraceColumn::Cls) =
        encodeColumn(s.clsData(), s.size(), chunk_elems);
    enc.col(TraceColumn::Pc) =
        encodeColumn(s.pcData(), s.size(), chunk_elems);
    encodeOperandColumns(s, chunk_elems, enc);
    enc.col(TraceColumn::Addr) =
        encodeColumn(s.addrData(), s.addrCount(), chunk_elems);
    return enc;
}

Trace
decodeTraceChunked(const EncodedTrace &enc)
{
    auto expectElems = [&](TraceColumn c, uint64_t want) {
        if (enc.col(c).elems != want)
            throw SpillError(std::string(traceColumnName(c)) +
                             ": column has " +
                             std::to_string(enc.col(c).elems) +
                             " elements, trace counts imply " +
                             std::to_string(want));
    };
    expectElems(TraceColumn::Cls, enc.records);
    expectElems(TraceColumn::Pc, enc.records);
    expectElems(TraceColumn::OpCls, enc.ops);
    expectElems(TraceColumn::OpA, enc.ops);
    expectElems(TraceColumn::OpB, enc.ops);
    expectElems(TraceColumn::OpRes, enc.ops);
    expectElems(TraceColumn::Addr, enc.addrs);

    TraceStore::Columns cols;
    decodeColumn(enc, TraceColumn::Cls, cols.cls);
    decodeColumn(enc, TraceColumn::Pc, cols.pc);
    decodeColumn(enc, TraceColumn::OpCls, cols.opCls);
    decodeColumn(enc, TraceColumn::OpA, cols.opA);
    decodeColumn(enc, TraceColumn::OpB, cols.opB);
    decodeColumn(enc, TraceColumn::OpRes, cols.opRes);
    decodeColumn(enc, TraceColumn::Addr, cols.addr);
    return Trace(TraceStore::adopt(std::move(cols)));
}

TraceManifest
manifestOf(const std::string &key, const EncodedTrace &enc)
{
    TraceManifest m;
    m.key = key;
    m.records = enc.records;
    m.ops = enc.ops;
    m.addrs = enc.addrs;
    for (size_t c = 0; c < kNumTraceColumns; c++)
        for (const EncodedChunk &ch : enc.cols[c].chunks)
            m.cols[c].push_back({ch.hash, ch.elems});
    return m;
}

std::string
encodeManifest(const TraceManifest &m)
{
    std::string out;
    out.append(kManifestMagic, sizeof(kManifestMagic));
    putU16(out, kSpillFormatVersion);
    putU16(out, 0); // reserved
    putU64(out, m.records);
    putU64(out, m.ops);
    putU64(out, m.addrs);
    putU32(out, static_cast<uint32_t>(m.key.size()));
    out.append(m.key);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        putU32(out, static_cast<uint32_t>(m.cols[c].size()));
        for (const ChunkRef &ch : m.cols[c]) {
            putU64(out, ch.hash);
            putU32(out, ch.elems);
        }
    }
    putU64(out, fnv1a(out.data(), out.size()));
    return out;
}

TraceManifest
decodeManifest(std::string_view bytes)
{
    if (bytes.size() < sizeof(uint64_t))
        throw SpillError("manifest: truncated");
    size_t hashed = bytes.size() - sizeof(uint64_t);
    ByteReader tail(bytes.substr(hashed), "manifest trailer");
    if (fnv1a(bytes.data(), hashed) != tail.u64())
        throw SpillError("manifest: trailing hash mismatch");

    ByteReader r(bytes.substr(0, hashed), "manifest");
    const char *magic = r.take(sizeof(kManifestMagic));
    if (std::memcmp(magic, kManifestMagic, sizeof(kManifestMagic)) != 0)
        throw SpillError("manifest: bad magic");
    uint16_t version = r.u16();
    if (version != kSpillFormatVersion)
        throw SpillError("manifest: unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSpillFormatVersion) + ")");
    if (r.u16() != 0)
        throw SpillError("manifest: nonzero reserved field");

    TraceManifest m;
    m.records = r.u64();
    m.ops = r.u64();
    m.addrs = r.u64();
    uint32_t keyLen = r.u32();
    m.key.assign(r.take(keyLen), keyLen);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        uint32_t chunks = r.u32();
        m.cols[c].reserve(chunks);
        for (uint32_t i = 0; i < chunks; i++) {
            ChunkRef ch;
            ch.hash = r.u64();
            ch.elems = r.u32();
            m.cols[c].push_back(ch);
        }
    }
    if (r.remaining() != 0)
        throw SpillError("manifest: " + std::to_string(r.remaining()) +
                         " trailing bytes");
    return m;
}

} // namespace memo
