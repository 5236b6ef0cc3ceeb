#include "chunk_codec.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <utility>

namespace memo
{

// Payloads and hash lanes are copied between memory and the format's
// little-endian bytes as they are.
static_assert(std::endian::native == std::endian::little,
              "the spill codec assumes a little-endian host");

namespace
{

/** Append the low @p n bytes of @p v to @p out, little-endian. */
void
putLE(std::string &out, uint64_t v, size_t n)
{
    for (size_t i = 0; i < n; i++)
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

    /** The next @p n bytes as a little-endian unsigned value. */
    uint64_t
    le(size_t n)
    {
        const char *p = take(n);
        uint64_t v = 0;
        for (size_t i = 0; i < n; i++)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i]))
                 << (8 * i);
        return v;
    }

    uint8_t u8() { return static_cast<uint8_t>(le(1)); }
    uint16_t u16() { return static_cast<uint16_t>(le(2)); }
    uint32_t u32() { return static_cast<uint32_t>(le(4)); }
    uint64_t u64() { return le(8); }

  private:
    std::string_view bytes_;
    const char *what_;
    size_t pos_ = 0;
};

// --- XXH64 ------------------------------------------------------------------

constexpr uint64_t kXxP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxP5 = 0x27D4EB2F165667C5ull;

uint64_t
load64(const unsigned char *p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

uint64_t
xxRound(uint64_t acc, uint64_t lane)
{
    return std::rotl(acc + lane * kXxP2, 31) * kXxP1;
}

uint64_t
xxMerge(uint64_t h, uint64_t acc)
{
    return (h ^ xxRound(0, acc)) * kXxP1 + kXxP4;
}

// --- chunk header -----------------------------------------------------------

/** Fixed chunk header fields, verified up to the payload size. */
struct ChunkHeader
{
    unsigned width = 0;
    uint32_t elems = 0;
    uint32_t payloadBytes = 0;
    uint64_t hash = 0;
};

/** §4's header checks, in order: everything before the content hash. */
ChunkHeader
readChunkHeader(std::string_view chunk)
{
    if (chunk.size() < kChunkHeaderBytes)
        throw SpillError("chunk header: truncated (" +
                         std::to_string(chunk.size()) + " of " +
                         std::to_string(kChunkHeaderBytes) + " bytes)");
    ByteReader r(chunk, "chunk header");
    if (std::memcmp(r.take(sizeof(kChunkMagic)), kChunkMagic,
                    sizeof(kChunkMagic)) != 0)
        throw SpillError("chunk header: bad magic");
    uint16_t version = r.u16();
    if (version != kSpillFormatVersion)
        throw SpillError("chunk header: unsupported version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kSpillFormatVersion) + ")");
    uint8_t encoding = r.u8();
    if (encoding != kEncodingRaw)
        throw SpillError("chunk header: unknown encoding id " +
                         std::to_string(encoding));
    ChunkHeader h;
    h.width = r.u8();
    if (h.width != 1 && h.width != 8)
        throw SpillError("chunk header: invalid element width " +
                         std::to_string(h.width));
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

/** Encode @p n elements of @p v into @p c, reusing its buffer. */
template <typename T>
void
encodeChunkInto(const T *v, uint32_t n, EncodedChunk &c)
{
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    const size_t payloadBytes = size_t{n} * sizeof(T);
    c.elems = n;
    c.hash = xxh64(v, payloadBytes);
    c.bytes.clear();
    c.bytes.append(kChunkMagic, sizeof(kChunkMagic));
    putLE(c.bytes, kSpillFormatVersion, 2);
    putLE(c.bytes, kEncodingRaw, 1);
    putLE(c.bytes, sizeof(T), 1);
    putLE(c.bytes, n, 4);
    putLE(c.bytes, payloadBytes, 4);
    putLE(c.bytes, c.hash, 8);
    c.bytes.append(reinterpret_cast<const char *>(v), payloadBytes);
}

/** Decode every chunk of column @p which onto the end of @p out. */
template <typename T>
void
decodeColumn(const TraceManifest &m, TraceColumn which,
             const ChunkSource &chunk, std::vector<T> &out)
{
    const std::vector<ChunkRef> &refs = m.col(which);
    const char *name = traceColumnName(which);
    for (size_t i = 0; i < refs.size(); i++)
        decodeChunkInto(chunk(which, i), out, name, &refs[i]);
}

/** Each operand column and the ClassColumns member it holds. */
using Words = std::vector<uint64_t> TraceStore::ClassColumns::*;
constexpr std::pair<TraceColumn, Words> kOperandColumns[] = {
    {TraceColumn::OpA, &TraceStore::ClassColumns::a},
    {TraceColumn::OpB, &TraceStore::ClassColumns::b},
    {TraceColumn::OpRes, &TraceStore::ClassColumns::r},
};

/** setChunkSplitFault() state; read once per operand column. */
std::atomic<bool> split_fault{false};

/**
 * Decode every chunk of operand column @p which into the class
 * columns of @p cols, each reserved exactly: class c takes the next
 * @p owned[c] words. A chunk within one class decodes straight into
 * its column; a chunk that spans the end of a class is split there.
 * Words past the last owned one have no class to go to and throw; a
 * class left short is adopt()'s to reject.
 */
void
decodeOperands(const TraceManifest &m, TraceColumn which, Words words,
               const std::array<size_t, numInstClasses> &owned,
               const ChunkSource &chunk, TraceStore::Columns &cols)
{
    const std::vector<ChunkRef> &refs = m.col(which);
    const char *name = traceColumnName(which);
    for (unsigned c = 0; c < numInstClasses; c++)
        (cols.ops[c].*words).reserve(owned[c]);
    unsigned c = 0; // the class taking words
    // Words class c still takes; the injected fault ends class 0
    // (IntAlu, which owns none) one word late.
    size_t left = owned[0] + split_fault.load(std::memory_order_relaxed);
    std::vector<uint64_t> part; // a chunk that spans a class end
    for (size_t i = 0; i < refs.size(); i++) {
        while (left == 0 && c + 1 < numInstClasses)
            left = owned[++c];
        if (refs[i].elems <= left) {
            decodeChunkInto(chunk(which, i), cols.ops[c].*words, name,
                            &refs[i]);
            left -= refs[i].elems;
            continue;
        }
        part.clear();
        decodeChunkInto(chunk(which, i), part, name, &refs[i]);
        for (size_t j = 0; j < part.size();) {
            while (left == 0) {
                if (++c == numInstClasses)
                    throw SpillError(std::string(name) +
                                     ": holds more words than the class "
                                     "column implies");
                left = owned[c];
            }
            const size_t n = std::min(left, part.size() - j);
            std::vector<uint64_t> &dst = cols.ops[c].*words;
            dst.insert(dst.end(), part.begin() + j, part.begin() + j + n);
            j += n;
            left -= n;
        }
    }
}

} // anonymous namespace

uint64_t
xxh64(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + n;
    uint64_t h;
    if (n >= 32) {
        uint64_t v1 = kXxP1 + kXxP2, v2 = kXxP2, v3 = 0, v4 = 0 - kXxP1;
        do {
            v1 = xxRound(v1, load64(p));
            v2 = xxRound(v2, load64(p + 8));
            v3 = xxRound(v3, load64(p + 16));
            v4 = xxRound(v4, load64(p + 24));
            p += 32;
        } while (end - p >= 32);
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMerge(xxMerge(xxMerge(xxMerge(h, v1), v2), v3), v4);
    } else {
        h = kXxP5;
    }
    h += n;
    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ xxRound(0, load64(p)), 27) * kXxP1 + kXxP4;
    if (end - p >= 4) {
        uint32_t lane;
        std::memcpy(&lane, p, sizeof(lane));
        h = std::rotl(h ^ (lane * kXxP1), 23) * kXxP2 + kXxP3;
        p += 4;
    }
    for (; p != end; p++)
        h = std::rotl(h ^ (*p * kXxP5), 11) * kXxP1;
    h ^= h >> 33;
    h *= kXxP2;
    h ^= h >> 29;
    h *= kXxP3;
    return h ^ (h >> 32);
}

const char *
traceColumnName(TraceColumn col)
{
    switch (col) {
      case TraceColumn::Cls:
        return "cls";
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
        return 1;
      default:
        return 8;
    }
}

template <typename T>
EncodedChunk
encodeChunk(const T *v, uint32_t n)
{
    EncodedChunk c;
    encodeChunkInto(v, n, c);
    return c;
}

template EncodedChunk encodeChunk(const uint8_t *, uint32_t);
template EncodedChunk encodeChunk(const uint64_t *, uint32_t);

template <typename T>
void
decodeChunkInto(std::string_view chunk, std::vector<T> &out,
                const char *column, const ChunkRef *expect)
{
    const ChunkHeader h = readChunkHeader(chunk);
    const char *payload = chunk.data() + kChunkHeaderBytes;
    const std::string name(column);
    if (xxh64(payload, h.payloadBytes) != h.hash)
        throw SpillError(name + ": content hash mismatch");
    // In 64 bits: a count whose 32-bit product wrapped onto the
    // payload size must not pass and size the output.
    if (uint64_t{h.elems} * h.width != h.payloadBytes)
        throw SpillError(name + ": element count mismatch (header says " +
                         std::to_string(h.elems) + " elements of " +
                         std::to_string(h.width) + " bytes, payload holds " +
                         std::to_string(h.payloadBytes) + " bytes)");
    if (h.width != sizeof(T))
        throw SpillError(name + ": chunk width " + std::to_string(h.width) +
                         ", column width " + std::to_string(sizeof(T)));
    if (expect && h.hash != expect->hash)
        throw SpillError(name + ": chunk hash differs from the manifest's");
    if (expect && h.elems != expect->elems)
        throw SpillError(name +
                         ": chunk element count differs from the "
                         "manifest's");
    const size_t base = out.size();
    out.resize(base + h.elems);
    if (h.elems)
        std::memcpy(out.data() + base, payload, h.payloadBytes);
}

template void decodeChunkInto(std::string_view, std::vector<uint8_t> &,
                              const char *, const ChunkRef *);
template void decodeChunkInto(std::string_view, std::vector<uint64_t> &,
                              const char *, const ChunkRef *);

TraceManifest
encodeTrace(const std::string &key, const Trace &trace,
            uint32_t chunk_elems, const ChunkSink &sink)
{
    if (chunk_elems == 0 || chunk_elems > kMaxChunkElems)
        throw SpillError("encodeTrace: chunk_elems must be in [1, " +
                         std::to_string(kMaxChunkElems) + "]");
    const TraceStore &s = trace.store();
    TraceManifest m;
    m.key = key;
    m.records = s.size();
    m.ops = s.opCount();
    m.addrs = s.addrCount();

    EncodedChunk chunk; // the one chunk in flight, its buffer reused
    auto emit = [&](TraceColumn c, const auto *v, size_t n) {
        encodeChunkInto(v, static_cast<uint32_t>(n), chunk);
        m.cols[static_cast<size_t>(c)].push_back({chunk.hash, chunk.elems});
        sink(c, chunk);
    };
    auto column = [&](TraceColumn c, const auto *v, size_t n) {
        for (size_t base = 0; base < n; base += chunk_elems)
            emit(c, v + base, std::min<size_t>(chunk_elems, n - base));
    };

    column(TraceColumn::Cls, s.clsData(), s.size());
    // Each operand column is the class columns back to back, sliced
    // like any other: a chunk within one class is encoded where it
    // lies, and only a chunk spanning a class end is gathered in part.
    std::vector<uint64_t> part;
    for (const auto &[which, words] : kOperandColumns) {
        for (unsigned c = 0; c < numInstClasses; c++) {
            const std::vector<uint64_t> &v =
                s.classColumns(static_cast<InstClass>(c)).*words;
            size_t p = 0;
            if (!part.empty()) { // top up the chunk a class began
                p = std::min<size_t>(chunk_elems - part.size(), v.size());
                part.insert(part.end(), v.begin(), v.begin() + p);
                if (part.size() == chunk_elems) {
                    emit(which, part.data(), part.size());
                    part.clear();
                }
            }
            for (; v.size() - p >= chunk_elems; p += chunk_elems)
                emit(which, v.data() + p, chunk_elems);
            part.insert(part.end(), v.begin() + p, v.end());
        }
        if (!part.empty()) {
            emit(which, part.data(), part.size());
            part.clear();
        }
    }
    column(TraceColumn::Addr, s.addrData(), s.addrCount());
    return m;
}

Trace
decodeTrace(const TraceManifest &m, const ChunkSource &chunk)
{
    const uint64_t implied[kNumTraceColumns] = {m.records, m.ops, m.ops,
                                                 m.ops, m.addrs};
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        uint64_t declared = 0;
        for (const ChunkRef &ref : m.cols[c])
            declared += ref.elems;
        if (declared != implied[c])
            throw SpillError(
                std::string(traceColumnName(static_cast<TraceColumn>(c))) +
                ": chunk element counts sum to " +
                std::to_string(declared) + ", trace counts imply " +
                std::to_string(implied[c]));
    }

    // cls grows with the chunks actually decoded, and only its
    // records size the other columns, so a manifest claiming more
    // elements than any file holds allocates nothing for them. Class c
    // owns as many words of each operand column as cls has class-c
    // records (none for a class without operands) and addr one word
    // per Load and Store; values that name no class are adopt()'s to
    // reject.
    TraceStore::Columns cols;
    decodeColumn(m, TraceColumn::Cls, chunk, cols.cls);
    cols.cls.shrink_to_fit();
    std::array<size_t, 256> records{};
    for (uint8_t c : cols.cls)
        records[c]++;
    std::array<size_t, numInstClasses> owned{};
    for (unsigned c = 0; c < numInstClasses; c++)
        if (TraceStore::hasOperands(static_cast<InstClass>(c)))
            owned[c] = records[c];
    for (const auto &[which, words] : kOperandColumns)
        decodeOperands(m, which, words, owned, chunk, cols);
    cols.addr.reserve(records[static_cast<unsigned>(InstClass::Load)] +
                      records[static_cast<unsigned>(InstClass::Store)]);
    decodeColumn(m, TraceColumn::Addr, chunk, cols.addr);
    return Trace(TraceStore::adopt(std::move(cols)));
}

EncodedTrace
encodeTraceChunked(const Trace &trace, uint32_t chunk_elems)
{
    EncodedTrace enc;
    enc.manifest = encodeTrace(
        "", trace, chunk_elems,
        [&](TraceColumn c, const EncodedChunk &ch) {
            enc.cols[static_cast<size_t>(c)].push_back(ch);
        });
    return enc;
}

void
setChunkSplitFault(bool enabled)
{
    split_fault.store(enabled, std::memory_order_relaxed);
}

Trace
decodeTraceChunked(const EncodedTrace &enc)
{
    return decodeTrace(enc.manifest,
                       [&](TraceColumn c, size_t i) -> std::string_view {
                           return enc.cols[static_cast<size_t>(c)]
                               .at(i)
                               .bytes;
                       });
}

std::string
encodeManifest(const TraceManifest &m)
{
    std::string out;
    out.append(kManifestMagic, sizeof(kManifestMagic));
    putLE(out, kSpillFormatVersion, 2);
    putLE(out, 0, 2); // reserved
    putLE(out, m.records, 8);
    putLE(out, m.ops, 8);
    putLE(out, m.addrs, 8);
    putLE(out, m.key.size(), 4);
    out.append(m.key);
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        putLE(out, m.cols[c].size(), 4);
        for (const ChunkRef &ch : m.cols[c]) {
            putLE(out, ch.hash, 8);
            putLE(out, ch.elems, 4);
        }
    }
    putLE(out, xxh64(out.data(), out.size()), 8);
    return out;
}

TraceManifest
decodeManifest(std::string_view bytes)
{
    if (bytes.size() < sizeof(uint64_t))
        throw SpillError("manifest: truncated");
    size_t hashed = bytes.size() - sizeof(uint64_t);
    ByteReader tail(bytes.substr(hashed), "manifest trailer");
    if (xxh64(bytes.data(), hashed) != tail.u64())
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
        // Each entry takes 12 bytes: a count the remaining bytes
        // cannot hold must not size the vector.
        if (chunks > r.remaining() / 12)
            throw SpillError("manifest: " + std::to_string(chunks) +
                             " chunks overrun the file");
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
