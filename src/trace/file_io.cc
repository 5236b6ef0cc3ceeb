#include "file_io.hh"

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
    // istream::read turns a failing read (EISDIR, EIO) into badbit;
    // a streambuf iterator would let libstdc++'s exception escape.
    out.clear();
    char buf[1 << 16];
    do {
        in.read(buf, sizeof(buf));
        out.append(buf, static_cast<size_t>(in.gcount()));
    } while (in);
    if (in.bad())
        return {"read error on " + path};
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

} // namespace memo
