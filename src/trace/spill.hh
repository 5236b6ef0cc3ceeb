/**
 * @file
 * Content-addressed on-disk store for traces: the spill tier of
 * exec::TraceCache and the saved traces of `memo-sim --save-trace` —
 * the one on-disk trace format.
 *
 * Layout under one root directory (docs/TRACE_FORMAT.md §5):
 *
 *   <root>/chunks/<hash16>.mtc      one encoded column chunk, named
 *                                   by its 64-bit content hash
 *   <root>/manifests/<keyhash16>.mtm  one manifest per trace key
 *
 * Chunks are shared: a chunk is written only if no file with its hash
 * exists, so traces that contain identical column slices (sweep
 * points differing only in table configuration, reruns of the same
 * workload) deduplicate to one copy. Writes are atomic
 * (temp file + rename) and the manifest is written last, so a reader
 * never observes a manifest whose chunks are missing or partial.
 * A write that replaces a key's manifest deletes the old manifest's
 * chunks that no manifest references any more, so saving different
 * traces under one key does not grow the store.
 *
 * The store itself is stateless apart from its root path; all methods
 * are safe to call concurrently, also from several processes: writers
 * share an flock(2) on <root>/lock that chunk deletion takes
 * exclusively. Every read-side defect (missing file, truncation, bit
 * rot, version skew) surfaces as SpillError — callers such as
 * exec::TraceCache treat the disk tier as a cache and fall back to
 * regeneration.
 */

#ifndef MEMO_TRACE_SPILL_HH
#define MEMO_TRACE_SPILL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace/chunk_codec.hh"
#include "trace/trace.hh"

namespace memo
{

/** One spill root: a chunk directory plus a manifest directory. */
class SpillStore
{
  public:
    /** Opens @p root, creating its subdirectories if needed. */
    explicit SpillStore(std::string root);

    /**
     * Opens the store that already exists at @p root, for reading.
     * Creates nothing: throws SpillError naming @p root when it holds
     * no store (no manifests directory).
     */
    static SpillStore existing(std::string root);

    const std::string &root() const { return root_; }

    /** Byte/chunk accounting of one write(). */
    struct WriteStats
    {
        uint64_t chunksWritten = 0;
        uint64_t chunksShared = 0; //!< chunks already present on disk
        uint64_t bytesWritten = 0;
        uint64_t bytesShared = 0;
    };

    /**
     * Encode @p trace and persist it under @p key, reusing any chunk
     * already in the store. Overwrites the key's previous manifest;
     * when that manifest was well-formed, each of its chunks that no
     * manifest references after the overwrite is deleted. Nothing is
     * deleted while any manifest in the store fails to decode.
     */
    WriteStats write(const std::string &key, const Trace &trace,
                     uint32_t chunk_elems = kDefaultChunkElems);

    /**
     * True when a complete, well-formed manifest for @p key exists
     * (its chunks are not probed). Never throws: a corrupt manifest
     * reads as absent.
     */
    bool contains(const std::string &key) const;

    /**
     * Decode the whole trace for @p key, reading its manifest once and
     * then one chunk file at a time, or return nullopt when the key
     * has no manifest file (a clean miss).
     * A manifest that is present but invalid, and any defective chunk,
     * throw SpillError.
     */
    std::optional<Trace> readIfPresent(const std::string &key) const;

    /** Decode the whole trace for @p key. Throws SpillError. */
    Trace read(const std::string &key) const;

    /** Parse + verify the manifest of @p key. Throws SpillError. */
    TraceManifest manifest(const std::string &key) const;

    /** All stored keys, sorted (deterministic listing order). */
    std::vector<std::string> keys() const;

    /** The well-formed manifests, and how many manifest files fail. */
    struct Scan
    {
        std::vector<TraceManifest> manifests;
        size_t corrupt = 0;
    };
    Scan scanManifests() const;

    /**
     * Hashes of the chunk files that no well-formed manifest
     * references, sorted. A store that only write() has touched has
     * none unless a manifest is corrupt.
     */
    std::vector<uint64_t> unreferencedChunks() const;

    /** On-disk size of chunk @p hash, or 0 if absent. */
    uint64_t chunkFileBytes(uint64_t hash) const;

    /** Path of the chunk file for @p hash (whether or not present). */
    std::string chunkPath(uint64_t hash) const;

    /** Path of the manifest file for @p key. */
    std::string manifestPath(const std::string &key) const;

  private:
    struct Existing
    {
    };
    SpillStore(Existing, std::string root) : root_(std::move(root)) {}

    /// The store's only state. Immutable after construction, so every
    /// method is safe to call concurrently without in-process locking:
    /// writes are atomic at the filesystem level (temp file + rename),
    /// chunk deletion waits for writes on the lock file, and reads
    /// only ever see fully-renamed files.
    const std::string root_;
};

} // namespace memo

#endif // MEMO_TRACE_SPILL_HH
