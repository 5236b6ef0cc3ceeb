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

/** Read @p path into @p bytes, reusing its buffer. */
void
readFile(const fs::path &path, const char *what, std::string &bytes)
{
    IoStatus st = readWholeFile(path.string(), bytes);
    if (!st.ok())
        throw SpillError(std::string(what) + ": " + st.error);
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

SpillStore
SpillStore::existing(std::string root)
{
    std::error_code ec;
    if (!fs::is_directory(fs::path(root) / "manifests", ec))
        throw SpillError("spill store: no store at " + root +
                         " (no manifests directory)");
    return SpillStore(Existing{}, std::move(root));
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
    uint64_t h = xxh64(key.data(), key.size());
    return (fs::path(root_) / "manifests" / (hex16(h) + ".mtm"))
        .string();
}

SpillStore::WriteStats
SpillStore::write(const std::string &key, const Trace &trace,
                  uint32_t chunk_elems)
{
    WriteStats ws;
    // Each chunk goes to disk as soon as it is encoded.
    TraceManifest m = encodeTrace(
        key, trace, chunk_elems,
        [&](TraceColumn, const EncodedChunk &ch) {
            fs::path path = chunkPath(ch.hash);
            std::error_code ec;
            if (fs::exists(path, ec)) {
                ws.chunksShared++;
                ws.bytesShared += ch.bytes.size();
                return;
            }
            writeFileAtomic(path, ch.bytes);
            ws.chunksWritten++;
            ws.bytesWritten += ch.bytes.size();
        });
    // Manifest last: its chunks are all durable by now.
    std::string mb = encodeManifest(m);
    writeFileAtomic(manifestPath(key), mb);
    ws.bytesWritten += mb.size();
    return ws;
}

TraceManifest
SpillStore::manifest(const std::string &key) const
{
    std::string bytes;
    readFile(manifestPath(key), "manifest", bytes);
    TraceManifest m = decodeManifest(bytes);
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

std::optional<Trace>
SpillStore::readIfPresent(const std::string &key) const
{
    std::error_code ec;
    if (!fs::exists(manifestPath(key), ec) && !ec)
        return std::nullopt;
    const TraceManifest m = manifest(key);
    // One chunk file in memory at a time; decodeTrace verifies it
    // against its manifest entry and decodes it into its column.
    std::string bytes;
    return decodeTrace(m, [&](TraceColumn c, size_t i) {
        readFile(chunkPath(m.col(c)[i].hash), traceColumnName(c), bytes);
        return std::string_view(bytes);
    });
}

Trace
SpillStore::read(const std::string &key) const
{
    std::optional<Trace> t = readIfPresent(key);
    if (!t)
        throw SpillError("manifest: no manifest for key '" + key +
                         "' in " + root_);
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
            std::string bytes;
            readFile(entry.path(), "manifest", bytes);
            out.push_back(decodeManifest(bytes).key);
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

} // namespace memo
