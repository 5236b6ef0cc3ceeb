#include "file_io.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace memo
{

IoStatus
readWholeFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {"cannot open " + path};
    // The first read asks for one byte more than the file's size, so
    // an unchanged file ends at EOF in one call; one that grew since
    // reads on in 64 KiB steps. istream::read turns a failing read
    // (EISDIR, EIO) into badbit; a streambuf iterator would let
    // libstdc++'s exception escape.
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    size_t step = ec ? size_t{1} << 16 : static_cast<size_t>(size) + 1;
    out.clear();
    do {
        const size_t have = out.size();
        out.resize(have + step);
        in.read(out.data() + have, static_cast<std::streamsize>(step));
        out.resize(have + static_cast<size_t>(in.gcount()));
        step = size_t{1} << 16;
    } while (in);
    if (in.bad())
        return {"read error on " + path};
    return {};
}

IoStatus
readFileHead(const std::string &path, size_t n, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {"cannot open " + path};
    out.resize(n);
    in.read(out.data(), static_cast<std::streamsize>(n));
    if (in.bad())
        return {"read error on " + path};
    out.resize(static_cast<size_t>(in.gcount()));
    return {};
}

IoStatus
writeWholeFile(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return {"cannot create " + path};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out)
        return {"write failed on " + path};
    return {};
}

IoStatus
renameFile(const std::string &from, const std::string &to)
{
    std::error_code ec;
    std::filesystem::rename(from, to, ec);
    if (ec)
        return {"rename to " + to + " failed: " + ec.message()};
    return {};
}

FileLock::~FileLock()
{
    if (fd_ >= 0)
        ::close(fd_); // closing the descriptor releases the lock
}

IoStatus
FileLock::lock(const std::string &path, bool exclusive)
{
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        return {"cannot open " + path + ": " +
                std::error_code(errno, std::generic_category()).message()};
    int rc;
    do
        rc = ::flock(fd_, exclusive ? LOCK_EX : LOCK_SH);
    while (rc != 0 && errno == EINTR);
    if (rc != 0)
        return {"cannot lock " + path + ": " +
                std::error_code(errno, std::generic_category()).message()};
    return {};
}

} // namespace memo
