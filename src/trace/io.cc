#include "io.hh"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "file_io.hh"

namespace memo
{

namespace
{

constexpr char magic[8] = {'M', 'E', 'M', 'O', 'T', 'R', 'C', '\0'};
constexpr uint32_t versionFixed = 1;
constexpr uint32_t versionDelta = 2;

/** Packed on-disk record: 1 + 4 + 8*4 = 37 bytes, explicitly laid
 *  out so the format does not depend on struct padding. */
constexpr size_t recordBytes = 1 + 4 + 8 * 4;

void
putU32(unsigned char *p, uint32_t v)
{
    for (int i = 0; i < 4; i++)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *p, uint64_t v)
{
    for (int i = 0; i < 8; i++)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

uint32_t
getU32(const unsigned char *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; i++)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getU64(const unsigned char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; i++)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** LEB128 varint encoding. */
void
putVarint(std::string &buf, uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    buf.push_back(static_cast<char>(v));
}

bool
getVarint(std::istream &in, uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 70; shift += 7) {
        int c = in.get();
        if (c < 0)
            return false;
        v |= static_cast<uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return true;
    }
    return false; // over-long encoding
}

/** Per-class field context for XOR-delta coding. */
struct DeltaState
{
    std::array<Instruction, numInstClasses> last{};
};

} // anonymous namespace

void
writeTrace(const Trace &trace, std::ostream &out, bool compressed)
{
    unsigned char header[16];
    std::memcpy(header, magic, 8);
    putU32(header + 8, compressed ? versionDelta : versionFixed);
    putU32(header + 12, static_cast<uint32_t>(trace.size()));
    out.write(reinterpret_cast<const char *>(header), sizeof(header));

    if (compressed) {
        DeltaState st;
        std::string buf;
        buf.reserve(trace.size() * 8);
        for (const Instruction &inst : trace) {
            unsigned c = static_cast<unsigned>(inst.cls);
            Instruction &prev = st.last[c];
            buf.push_back(static_cast<char>(c));
            putVarint(buf, inst.pc ^ prev.pc);
            putVarint(buf, inst.a ^ prev.a);
            putVarint(buf, inst.b ^ prev.b);
            putVarint(buf, inst.result ^ prev.result);
            putVarint(buf, inst.addr ^ prev.addr);
            prev = inst;
        }
        out.write(buf.data(),
                  static_cast<std::streamsize>(buf.size()));
    } else {
        std::array<unsigned char, recordBytes> rec;
        for (const Instruction &inst : trace) {
            rec[0] = static_cast<unsigned char>(inst.cls);
            putU32(rec.data() + 1, inst.pc);
            putU64(rec.data() + 5, inst.a);
            putU64(rec.data() + 13, inst.b);
            putU64(rec.data() + 21, inst.result);
            putU64(rec.data() + 29, inst.addr);
            out.write(reinterpret_cast<const char *>(rec.data()),
                      static_cast<std::streamsize>(rec.size()));
        }
    }
    if (!out)
        throw std::runtime_error("trace: write failed");
}

void
writeTrace(const Trace &trace, const std::string &path, bool compressed)
{
    std::ostringstream out;
    writeTrace(trace, out, compressed);
    IoStatus st = writeWholeFile(path, out.str());
    if (!st.ok())
        throw std::runtime_error("trace: " + st.error);
}

Trace
readTrace(std::istream &in)
{
    unsigned char header[16];
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    if (!in || std::memcmp(header, magic, 8) != 0)
        throw std::runtime_error("trace: bad magic");
    uint32_t version = getU32(header + 8);
    uint32_t count = getU32(header + 12);

    // The header's count is untrusted, so nothing is sized from it:
    // the record loop below stops at the first missing byte.
    Trace trace;
    if (version == versionDelta) {
        DeltaState st;
        for (uint32_t i = 0; i < count; i++) {
            int c = in.get();
            if (c < 0)
                throw std::runtime_error("trace: truncated");
            if (c >= static_cast<int>(numInstClasses))
                throw std::runtime_error(
                    "trace: bad instruction class");
            Instruction &prev = st.last[static_cast<unsigned>(c)];
            uint64_t pc, a, b, result, addr;
            if (!getVarint(in, pc) || !getVarint(in, a) ||
                !getVarint(in, b) || !getVarint(in, result) ||
                !getVarint(in, addr))
                throw std::runtime_error("trace: truncated");
            Instruction inst;
            inst.cls = static_cast<InstClass>(c);
            inst.pc = static_cast<uint32_t>(pc) ^ prev.pc;
            inst.a = a ^ prev.a;
            inst.b = b ^ prev.b;
            inst.result = result ^ prev.result;
            inst.addr = addr ^ prev.addr;
            prev = inst;
            trace.push(inst);
        }
        return trace;
    }
    if (version != versionFixed)
        throw std::runtime_error("trace: unsupported version");
    std::array<unsigned char, recordBytes> rec;
    for (uint32_t i = 0; i < count; i++) {
        in.read(reinterpret_cast<char *>(rec.data()),
                static_cast<std::streamsize>(rec.size()));
        if (!in)
            throw std::runtime_error("trace: truncated");
        if (rec[0] >= numInstClasses)
            throw std::runtime_error("trace: bad instruction class");
        Instruction inst;
        inst.cls = static_cast<InstClass>(rec[0]);
        inst.pc = getU32(rec.data() + 1);
        inst.a = getU64(rec.data() + 5);
        inst.b = getU64(rec.data() + 13);
        inst.result = getU64(rec.data() + 21);
        inst.addr = getU64(rec.data() + 29);
        trace.push(inst);
    }
    return trace;
}

Trace
readTrace(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("trace: cannot open " + path);
    return readTrace(in);
}

} // namespace memo
