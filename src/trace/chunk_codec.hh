/**
 * @file
 * Byte-level codec for the out-of-core trace tier.
 *
 * A trace spilled to disk becomes a set of independently decodable
 * *chunks* (fixed-size slices of one TraceStore column, delta+varint
 * encoded and content-addressed by FNV-1a) plus one *manifest* naming
 * the chunks of each column. The layout is a persistent format with
 * a normative spec in docs/TRACE_FORMAT.md; this header is the single
 * place the magic numbers, version and header shapes live, and the
 * spec and these constants must match field-for-field (pinned by
 * TraceSpillFormat tests).
 *
 * Everything here is pure bytes-in/bytes-out — no filesystem — so the
 * round-trip and corruption properties are fuzzable hermetically (the
 * chunk-codec memo-fuzz case kind). File placement, dedup and atomic
 * writes live in trace/spill.hh.
 *
 * Corruption contract: every decoder failure, whatever the cause
 * (truncation, bit flip, wrong magic/version, count mismatch), throws
 * SpillError. Decoders never return partially decoded data and never
 * read past the supplied buffer.
 */

#ifndef MEMO_TRACE_CHUNK_CODEC_HH
#define MEMO_TRACE_CHUNK_CODEC_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hh"

namespace memo
{

/** Any defect detected while decoding spilled trace bytes. */
class SpillError : public std::runtime_error
{
  public:
    explicit SpillError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

// ---------------------------------------------------------------------------
// Format constants (normative; see docs/TRACE_FORMAT.md).
// ---------------------------------------------------------------------------

/** Chunk file magic, bytes 0-3 of every chunk: "MTCK". */
inline constexpr char kChunkMagic[4] = {'M', 'T', 'C', 'K'};

/** Manifest file magic, bytes 0-3 of every manifest: "MTRM". */
inline constexpr char kManifestMagic[4] = {'M', 'T', 'R', 'M'};

/** Schema version shared by chunk and manifest headers. */
inline constexpr uint16_t kSpillFormatVersion = 1;

/** Encoding id 1: per-element delta, zigzag, LEB128 varint. */
inline constexpr uint8_t kEncodingDeltaVarint = 1;

/** Fixed chunk header size in bytes. */
inline constexpr size_t kChunkHeaderBytes = 24;

/** Fixed manifest header size in bytes (before the key). */
inline constexpr size_t kManifestHeaderBytes = 36;

/** Default number of elements per chunk. */
inline constexpr uint32_t kDefaultChunkElems = 1u << 16;

/** FNV-1a 64-bit offset basis. */
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;

/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/**
 * The seven TraceStore columns a manifest indexes, in on-disk order.
 * The payload_ column is not stored: it is an index derived from the
 * class sequence and is rebuilt exactly during decode.
 */
enum class TraceColumn : uint8_t
{
    Cls = 0,   //!< per-record InstClass (u8)
    Pc = 1,    //!< per-record synthetic PC (u32)
    OpCls = 2, //!< class of each operand-carrying record (u8)
    OpA = 3,   //!< operand A words (u64)
    OpB = 4,   //!< operand B words (u64)
    OpRes = 5, //!< result words (u64)
    Addr = 6,  //!< effective addresses of Load/Store (u64)
};

inline constexpr size_t kNumTraceColumns = 7;

/** Human-readable column name ("cls", "pc", ...). */
const char *traceColumnName(TraceColumn col);

/** Decoded element width in bytes (1, 4 or 8); bounds decode values. */
unsigned traceColumnWidth(TraceColumn col);

/** FNV-1a 64 over @p n bytes, continuing from @p h. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

// ---------------------------------------------------------------------------
// Chunks.
// ---------------------------------------------------------------------------

/** One encoded chunk: full file image (header + payload). */
struct EncodedChunk
{
    std::string bytes;  //!< header + payload, ready to write
    uint64_t hash = 0;  //!< content hash (names the chunk file)
    uint32_t elems = 0; //!< decoded element count
};

/**
 * Encode @p n u64 elements as one chunk. Delta state starts at zero,
 * so chunks decode independently of their neighbours.
 */
EncodedChunk encodeChunk(const uint64_t *v, uint32_t n);

/**
 * Decode one chunk image and append its elements to @p out, each
 * narrowed to @p T (uint8_t, uint32_t or uint64_t). Verifies magic,
 * version, encoding id, reserved byte, payload size, content hash,
 * varints and element count, reporting the first failure in the order
 * docs/TRACE_FORMAT.md §4 lists them, then that every element fits
 * in @p T. The content hash is computed in the same pass as the
 * varints; a count larger than the payload could hold is rejected
 * before anything is allocated. @p column names the column in error
 * messages. Throws SpillError and leaves @p out as it was.
 */
template <typename T>
void decodeChunkInto(std::string_view chunk, std::vector<T> &out,
                     const char *column);

/** decodeChunkInto() into a fresh u64 vector. Throws SpillError. */
std::vector<uint64_t> decodeChunk(std::string_view chunk);

// ---------------------------------------------------------------------------
// Whole-trace encoding (column -> chunk list).
// ---------------------------------------------------------------------------

/** One column as an ordered chunk sequence. */
struct EncodedColumn
{
    uint64_t elems = 0;
    std::vector<EncodedChunk> chunks;
};

/** A whole trace, encoded; indexed by TraceColumn. */
struct EncodedTrace
{
    uint64_t records = 0; //!< cls/pc element count
    uint64_t ops = 0;     //!< opCls/opA/opB/opRes element count
    uint64_t addrs = 0;   //!< addr element count
    std::array<EncodedColumn, kNumTraceColumns> cols;

    const EncodedColumn &
    col(TraceColumn c) const
    {
        return cols[static_cast<size_t>(c)];
    }
    EncodedColumn &
    col(TraceColumn c)
    {
        return cols[static_cast<size_t>(c)];
    }
};

/**
 * Slice the seven trace-order columns of @p trace into chunks of
 * @p chunk_elems elements (the last chunk of a column is short); the
 * operand columns are gathered back into trace order from the store's
 * per-class columns. All columns share the same slice width, so chunk
 * i of the four operand columns covers the same records — the
 * invariant streamed replay relies on.
 */
EncodedTrace encodeTraceChunked(const Trace &trace,
                                uint32_t chunk_elems =
                                    kDefaultChunkElems);

/**
 * Reassemble a Trace from encoded columns, a column at a time: each
 * column's chunks decode straight into its typed vector, and
 * TraceStore::adopt() takes the seven vectors, rebuilding the derived
 * payload index and scattering the operands into their class columns
 * in one pass over the class column. Verifies every
 * chunk plus cross-column consistency (every class value is an
 * InstClass; the stored opCls column agrees with the class sequence;
 * the operand and address columns hold exactly the records the class
 * column implies). Throws SpillError.
 */
Trace decodeTraceChunked(const EncodedTrace &enc);

// ---------------------------------------------------------------------------
// Manifests.
// ---------------------------------------------------------------------------

/** Reference to one chunk from a manifest. */
struct ChunkRef
{
    uint64_t hash = 0;
    uint32_t elems = 0;
};

/** Parsed manifest: which chunks make up each column of one trace. */
struct TraceManifest
{
    std::string key; //!< spill key ("workload|image|crop")
    uint64_t records = 0;
    uint64_t ops = 0;
    uint64_t addrs = 0;
    std::array<std::vector<ChunkRef>, kNumTraceColumns> cols;

    const std::vector<ChunkRef> &
    col(TraceColumn c) const
    {
        return cols[static_cast<size_t>(c)];
    }
};

/** Build the manifest naming @p enc's chunks under @p key. */
TraceManifest manifestOf(const std::string &key,
                         const EncodedTrace &enc);

/** Serialize a manifest to its file image (with trailing hash). */
std::string encodeManifest(const TraceManifest &m);

/** Parse and fully verify a manifest image. Throws SpillError. */
TraceManifest decodeManifest(std::string_view bytes);

} // namespace memo

#endif // MEMO_TRACE_CHUNK_CODEC_HH
