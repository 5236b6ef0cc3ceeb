/**
 * @file
 * Byte-level codec for the out-of-core trace tier.
 *
 * A trace spilled to disk becomes a set of independently decodable
 * *chunks* (fixed-size slices of one TraceStore column, stored as raw
 * little-endian words of the column's width and content-addressed by
 * XXH64) plus one *manifest* naming the chunks of each column. The
 * layout is a persistent format with a normative spec in
 * docs/TRACE_FORMAT.md; this header is the single place the magic
 * numbers, version and header shapes live, and the spec and these
 * constants must match field-for-field (pinned by TraceSpillFormat
 * tests).
 *
 * Everything here is pure bytes-in/bytes-out — no filesystem — so the
 * round-trip and corruption properties are fuzzable hermetically (the
 * chunk-codec memo-fuzz case kind). Encoding hands out one chunk at a
 * time and decoding asks for one chunk at a time, so a caller never
 * needs a whole encoded trace in memory. File placement, dedup and
 * atomic writes live in trace/spill.hh.
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
#include <functional>
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
inline constexpr uint16_t kSpillFormatVersion = 3;

/** Encoding id 2: raw little-endian words of the header's width. */
inline constexpr uint8_t kEncodingRaw = 2;

/** Fixed chunk header size in bytes. */
inline constexpr size_t kChunkHeaderBytes = 24;

/** Fixed manifest header size in bytes (before the key). */
inline constexpr size_t kManifestHeaderBytes = 36;

/** Default number of elements per chunk. */
inline constexpr uint32_t kDefaultChunkElems = 1u << 16;

/** Largest chunk element count whose u64 payload fits payloadBytes. */
inline constexpr uint32_t kMaxChunkElems = UINT32_MAX / 8;

/** The six TraceStore columns a manifest indexes, in on-disk order. */
enum class TraceColumn : uint8_t
{
    Cls = 0,   //!< per-record InstClass (u8)
    OpCls = 1, //!< class of each operand-carrying record (u8)
    OpA = 2,   //!< operand A words (u64)
    OpB = 3,   //!< operand B words (u64)
    OpRes = 4, //!< result words (u64)
    Addr = 5,  //!< effective addresses of Load/Store (u64)
};

inline constexpr size_t kNumTraceColumns = 6;

/** Human-readable column name ("cls", "opCls", ...). */
const char *traceColumnName(TraceColumn col);

/** Element width in bytes (1 or 8) of the column's chunks. */
unsigned traceColumnWidth(TraceColumn col);

/** XXH64 with seed 0 over @p n bytes: the format's one hash. */
uint64_t xxh64(const void *data, size_t n);

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

/** Reference to one chunk from a manifest. */
struct ChunkRef
{
    uint64_t hash = 0;
    uint32_t elems = 0;
};

/**
 * Encode @p n elements of @p v (uint8_t or uint64_t) as one
 * chunk of element width sizeof(T). @p n is at most kMaxChunkElems.
 */
template <typename T>
EncodedChunk encodeChunk(const T *v, uint32_t n);

/**
 * Decode one chunk image and append its elements to @p out, whose
 * element type must be the chunk's width. Verifies, in the order
 * docs/TRACE_FORMAT.md §4 lists them: header length, magic, version,
 * encoding id, width, payload size, content hash, element count
 * against payload size (in 64 bits), width against @p T, and, when
 * @p expect is given, that the chunk is the one a manifest names (its
 * hash and element count). Every check runs before @p out grows.
 * @p column names the column in error messages. Throws SpillError and
 * leaves @p out as it was.
 */
template <typename T>
void decodeChunkInto(std::string_view chunk, std::vector<T> &out,
                     const char *column,
                     const ChunkRef *expect = nullptr);

// ---------------------------------------------------------------------------
// Manifests.
// ---------------------------------------------------------------------------

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

/** Serialize a manifest to its file image (with trailing hash). */
std::string encodeManifest(const TraceManifest &m);

/** Parse and fully verify a manifest image. Throws SpillError. */
TraceManifest decodeManifest(std::string_view bytes);

// ---------------------------------------------------------------------------
// Whole traces, one chunk at a time.
// ---------------------------------------------------------------------------

/** Takes each chunk encodeTrace() makes; valid only during the call. */
using ChunkSink = std::function<void(TraceColumn, const EncodedChunk &)>;

/**
 * Slice the six trace-order columns of @p trace into chunks of
 * @p chunk_elems elements (the last chunk of a column is short), hand
 * each chunk to @p sink as soon as it is encoded, and return the
 * manifest naming them under @p key. One chunk's bytes exist at a
 * time. The operand columns are gathered back into trace order from
 * the store's per-class columns. All columns share the same slice
 * width, so chunk i of the four operand columns covers the same
 * records.
 */
TraceManifest encodeTrace(const std::string &key, const Trace &trace,
                          uint32_t chunk_elems, const ChunkSink &sink);

/**
 * Returns the image of chunk @p i of column @p c of the trace being
 * decoded. The view need only stay valid until the next call.
 */
using ChunkSource = std::function<std::string_view(TraceColumn c,
                                                   size_t i)>;

/**
 * Reassemble the trace @p m describes, asking @p chunk for one chunk
 * at a time: each is checked against its manifest entry and decodes
 * straight into its typed column (operand chunks into the class
 * columns their opCls elements name), and TraceStore::adopt() takes
 * the columns. Verifies first that each column's chunk counts sum to
 * the count the manifest header implies, then every chunk, then the
 * cross-column rules (every class value is an InstClass; every opCls
 * value is a class with operands and agrees with the class sequence;
 * the operand and address columns hold exactly the records the class
 * column implies). Throws SpillError.
 */
Trace decodeTrace(const TraceManifest &m, const ChunkSource &chunk);

/** A whole trace encoded in memory: its manifest and chunk images. */
struct EncodedTrace
{
    TraceManifest manifest;
    /// Chunk images per column, in manifest order.
    std::array<std::vector<EncodedChunk>, kNumTraceColumns> cols;
};

/** encodeTrace() into memory, under an empty key. */
EncodedTrace encodeTraceChunked(const Trace &trace,
                                uint32_t chunk_elems =
                                    kDefaultChunkElems);

/** decodeTrace() from memory. Throws SpillError. */
Trace decodeTraceChunked(const EncodedTrace &enc);

} // namespace memo

#endif // MEMO_TRACE_CHUNK_CODEC_HH
