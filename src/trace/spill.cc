#include "spill.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <unordered_set>

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

/**
 * Hold the store's lock file: shared by every write, exclusive while
 * orphaned chunks are deleted, so no write can find a chunk present
 * (and skip writing it) while that chunk is being deleted.
 */
void
lockStore(FileLock &lock, const std::string &root, bool exclusive)
{
    IoStatus st = lock.lock((fs::path(root) / "lock").string(), exclusive);
    if (!st.ok())
        throw SpillError("spill lock: " + st.error);
}

/** Add the hash of every chunk @p m references to @p out. */
void
addChunkHashes(const TraceManifest &m, std::unordered_set<uint64_t> &out)
{
    for (const std::vector<ChunkRef> &col : m.cols)
        for (const ChunkRef &ref : col)
            out.insert(ref.hash);
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
    // The manifest this write replaces; its chunks may become orphans.
    std::optional<TraceManifest> old;
    try {
        old = manifest(key);
    } catch (const SpillError &) {
        // Absent or corrupt: nothing this write can account for.
    }

    TraceManifest m;
    {
        FileLock shared;
        lockStore(shared, root_, false);
        // Each chunk goes to disk as soon as it is encoded.
        m = encodeTrace(
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
    }

    if (!old)
        return ws;
    std::unordered_set<uint64_t> kept;
    addChunkHashes(m, kept);
    std::vector<uint64_t> dropped;
    for (const std::vector<ChunkRef> &col : old->cols)
        for (const ChunkRef &ref : col)
            if (!kept.count(ref.hash))
                dropped.push_back(ref.hash);
    if (dropped.empty())
        return ws;
    FileLock exclusive;
    lockStore(exclusive, root_, true);
    const Scan scan = scanManifests();
    if (scan.corrupt)
        return ws; // an unreadable manifest may reference any chunk
    std::unordered_set<uint64_t> live;
    for (const TraceManifest &other : scan.manifests)
        addChunkHashes(other, live);
    for (uint64_t h : dropped) {
        // A chunk that cannot be deleted stays an orphan, which
        // memo-trace-dump --verify reports.
        std::error_code ec;
        if (!live.count(h))
            fs::remove(chunkPath(h), ec);
    }
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

SpillStore::Scan
SpillStore::scanManifests() const
{
    Scan scan;
    std::error_code ec;
    fs::directory_iterator it(fs::path(root_) / "manifests", ec);
    if (ec)
        return scan;
    std::string bytes;
    for (const auto &entry : it) {
        if (entry.path().extension() != ".mtm")
            continue;
        try {
            readFile(entry.path(), "manifest", bytes);
            scan.manifests.push_back(decodeManifest(bytes));
        } catch (const SpillError &) {
            scan.corrupt++;
        }
    }
    return scan;
}

std::vector<std::string>
SpillStore::keys() const
{
    // Corrupt manifests are invisible to listing; read() against
    // their key reports the defect precisely.
    std::vector<std::string> out;
    for (const TraceManifest &m : scanManifests().manifests)
        out.push_back(m.key);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint64_t>
SpillStore::unreferencedChunks() const
{
    std::unordered_set<uint64_t> live;
    for (const TraceManifest &m : scanManifests().manifests)
        addChunkHashes(m, live);
    std::vector<uint64_t> out;
    std::error_code ec;
    fs::directory_iterator it(fs::path(root_) / "chunks", ec);
    if (ec)
        return out;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        uint64_t h = 0;
        // Only <hash16>.mtc names are chunks; temp files are not.
        if (name.size() != 20 || name.compare(16, 4, ".mtc") != 0 ||
            std::from_chars(name.data(), name.data() + 16, h, 16).ptr !=
                name.data() + 16)
            continue;
        if (!live.count(h))
            out.push_back(h);
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
