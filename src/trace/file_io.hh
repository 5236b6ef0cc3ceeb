/**
 * @file
 * Checked whole-file I/O for the trace disk tier: SpillStore reads,
 * writes and renames its files only through these functions.
 *
 * The spill tier's contract is that no I/O outcome is dropped: a
 * failed read surfaces as SpillError (and the cache regenerates), a
 * failed write is reported to the caller. Every operation here returns
 * an IoStatus, a [[nodiscard]] type, and memo_trace compiles with
 * -Werror=unused-result, so code in src/trace that ignores an outcome
 * does not build, under GCC and Clang alike. The
 * compile_fail_discarded_io ctest proves that rule holds.
 */

#ifndef MEMO_TRACE_FILE_IO_HH
#define MEMO_TRACE_FILE_IO_HH

#include <string>
#include <string_view>

namespace memo
{

/** Outcome of one file operation. */
struct [[nodiscard]] IoStatus
{
    std::string error; //!< empty on success, else what failed and where

    bool ok() const { return error.empty(); }
};

/** Read the whole of @p path into @p out. */
IoStatus readWholeFile(const std::string &path, std::string &out);

/** Create or truncate @p path and write @p bytes to it, closed. */
IoStatus writeWholeFile(const std::string &path, std::string_view bytes);

/** Rename @p from over @p to; atomic within one directory. */
IoStatus renameFile(const std::string &from, const std::string &to);

/** An flock(2) on one file, held until the FileLock is destroyed. */
class FileLock
{
  public:
    FileLock() = default;
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;
    ~FileLock();

    /**
     * Open @p path (creating it if absent) and lock it, shared or
     * exclusive, waiting until the lock is granted. Call once.
     */
    IoStatus lock(const std::string &path, bool exclusive);

  private:
    int fd_ = -1;
};

} // namespace memo

#endif // MEMO_TRACE_FILE_IO_HH
