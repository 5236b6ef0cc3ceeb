#include "spill.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "trace/file_io.hh"

namespace memo
{

namespace fs = std::filesystem;

namespace
{

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readFile(const fs::path &path, const char *what)
{
    std::string bytes;
    IoStatus st = readWholeFile(path.string(), bytes);
    if (!st.ok())
        throw SpillError(std::string(what) + ": " + st.error);
    return bytes;
}

/**
 * Write @p bytes to @p path atomically: a unique temp file in the
 * same directory, flushed, then renamed over the target. Readers see
 * either the old file or the complete new one, never a prefix.
 */
void
writeFileAtomic(const fs::path &path, const std::string &bytes)
{
    // Unique per process and per call; rename() is atomic within the
    // directory, which is all the concurrency the store needs.
    static std::atomic<uint64_t> seq{0};
    fs::path tmp = path;
    tmp += ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    IoStatus st = writeWholeFile(tmp.string(), bytes);
    if (st.ok())
        st = renameFile(tmp.string(), path.string());
    if (!st.ok()) {
        // Best-effort cleanup; the write failure is what gets reported.
        std::error_code ec;
        fs::remove(tmp, ec);
        throw SpillError("spill write: " + st.error);
    }
}

} // anonymous namespace

SpillStore::SpillStore(std::string root) : root_(std::move(root))
{
    std::error_code ec;
    fs::create_directories(fs::path(root_) / "chunks", ec);
    if (!ec)
        fs::create_directories(fs::path(root_) / "manifests", ec);
    if (ec)
        throw SpillError("spill store: cannot create directories under " +
                         root_ + ": " + ec.message());
}

std::string
SpillStore::chunkPath(uint64_t hash) const
{
    return (fs::path(root_) / "chunks" / (hex16(hash) + ".mtc"))
        .string();
}

std::string
SpillStore::manifestPath(const std::string &key) const
{
    uint64_t h = fnv1a(key.data(), key.size());
    return (fs::path(root_) / "manifests" / (hex16(h) + ".mtm"))
        .string();
}

SpillStore::WriteStats
SpillStore::write(const std::string &key, const Trace &trace,
                  uint32_t chunk_elems)
{
    EncodedTrace enc = encodeTraceChunked(trace, chunk_elems);
    WriteStats ws;
    for (const EncodedColumn &col : enc.cols) {
        for (const EncodedChunk &ch : col.chunks) {
            fs::path path = chunkPath(ch.hash);
            std::error_code ec;
            if (fs::exists(path, ec)) {
                ws.chunksShared++;
                ws.bytesShared += ch.bytes.size();
                continue;
            }
            writeFileAtomic(path, ch.bytes);
            ws.chunksWritten++;
            ws.bytesWritten += ch.bytes.size();
        }
    }
    // Manifest last: its chunks are all durable by now.
    std::string mb = encodeManifest(manifestOf(key, enc));
    writeFileAtomic(manifestPath(key), mb);
    ws.bytesWritten += mb.size();
    return ws;
}

TraceManifest
SpillStore::manifest(const std::string &key) const
{
    TraceManifest m =
        decodeManifest(readFile(manifestPath(key), "manifest"));
    if (m.key != key)
        throw SpillError("manifest: stores key '" + m.key +
                         "', expected '" + key + "'");
    return m;
}

bool
SpillStore::contains(const std::string &key) const
{
    try {
        manifest(key);
        return true;
    } catch (const SpillError &) {
        return false;
    }
}

EncodedChunk
SpillStore::loadChunk(const ChunkRef &ref, TraceColumn which) const
{
    EncodedChunk ch;
    ch.bytes = readFile(chunkPath(ref.hash),
                        traceColumnName(which));
    ch.hash = ref.hash;
    ch.elems = ref.elems;
    if (ch.bytes.size() < kChunkHeaderBytes)
        throw SpillError(std::string(traceColumnName(which)) +
                         ": chunk file " + hex16(ref.hash) +
                         " shorter than its header");
    // Cross-check the file against the manifest's reference before
    // decode: an internally valid chunk in the wrong file (or a
    // manifest pointing at the wrong hash) must not decode silently.
    auto u32At = [&](size_t off) {
        uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= static_cast<uint32_t>(
                     static_cast<uint8_t>(ch.bytes[off + i]))
                 << (8 * i);
        return v;
    };
    uint64_t fileHash = 0;
    for (int i = 0; i < 8; i++)
        fileHash |= static_cast<uint64_t>(
                        static_cast<uint8_t>(ch.bytes[16 + i]))
                    << (8 * i);
    if (fileHash != ref.hash)
        throw SpillError(std::string(traceColumnName(which)) +
                         ": chunk file " + hex16(ref.hash) +
                         " carries hash " + hex16(fileHash));
    if (u32At(8) != ref.elems)
        throw SpillError(std::string(traceColumnName(which)) +
                         ": chunk file " + hex16(ref.hash) +
                         " element count differs from manifest");
    return ch;
}

std::optional<Trace>
SpillStore::readIfPresent(const std::string &key) const
{
    std::error_code ec;
    if (!fs::exists(manifestPath(key), ec) && !ec)
        return std::nullopt;
    TraceManifest m = manifest(key);
    EncodedTrace enc;
    enc.records = m.records;
    enc.ops = m.ops;
    enc.addrs = m.addrs;
    for (size_t c = 0; c < kNumTraceColumns; c++) {
        TraceColumn which = static_cast<TraceColumn>(c);
        EncodedColumn &col = enc.cols[c];
        for (const ChunkRef &ref : m.cols[c]) {
            col.chunks.push_back(loadChunk(ref, which));
            col.elems += ref.elems;
        }
    }
    // decodeTraceChunked verifies every chunk (magic/version/hash/
    // counts) and the cross-column invariants before returning.
    return decodeTraceChunked(enc);
}

Trace
SpillStore::read(const std::string &key) const
{
    std::optional<Trace> t = readIfPresent(key);
    if (!t)
        throw SpillError("manifest: no manifest for key '" + key + "'");
    return std::move(*t);
}

std::vector<std::string>
SpillStore::keys() const
{
    std::vector<std::string> out;
    std::error_code ec;
    fs::directory_iterator it(fs::path(root_) / "manifests", ec);
    if (ec)
        return out;
    for (const auto &entry : it) {
        if (entry.path().extension() != ".mtm")
            continue;
        try {
            out.push_back(
                decodeManifest(readFile(entry.path(), "manifest")).key);
        } catch (const SpillError &) {
            // Corrupt manifests are invisible to listing; read()
            // against their key reports the defect precisely.
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

uint64_t
SpillStore::chunkFileBytes(uint64_t hash) const
{
    std::error_code ec;
    uint64_t n = fs::file_size(chunkPath(hash), ec);
    return ec ? 0 : n;
}

SpillStore::Reader
SpillStore::open(const std::string &key) const
{
    TraceManifest m = manifest(key);
    // Streamed replay walks the four operand columns in lockstep;
    // require identical chunking up front so readOpChunk(i) is
    // well-defined.
    const auto &cls = m.col(TraceColumn::OpCls);
    for (TraceColumn c : {TraceColumn::OpA, TraceColumn::OpB,
                          TraceColumn::OpRes}) {
        const auto &col = m.col(c);
        if (col.size() != cls.size())
            throw SpillError(std::string(traceColumnName(c)) +
                             ": chunk count differs from opCls");
        for (size_t i = 0; i < col.size(); i++)
            if (col[i].elems != cls[i].elems)
                throw SpillError(std::string(traceColumnName(c)) +
                                 ": chunk " + std::to_string(i) +
                                 " element count differs from opCls");
    }
    return Reader(*this, std::move(m));
}

void
SpillStore::Reader::readOpChunk(size_t i, std::vector<uint64_t> &cls,
                                std::vector<uint64_t> &a,
                                std::vector<uint64_t> &b,
                                std::vector<uint64_t> &r) const
{
    // loadChunk pins the file to the manifest's hash/count and
    // decodeChunk verifies the payload against the header, so the
    // vectors below are fully validated.
    auto decodeOne = [&](TraceColumn c, std::vector<uint64_t> &out) {
        out = decodeChunk(store_->loadChunk(m_.col(c).at(i), c).bytes);
    };
    decodeOne(TraceColumn::OpCls, cls);
    decodeOne(TraceColumn::OpA, a);
    decodeOne(TraceColumn::OpB, b);
    decodeOne(TraceColumn::OpRes, r);
}

} // namespace memo
