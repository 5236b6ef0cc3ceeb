#include "recorder.hh"

#include <cmath>
#include <cstring>
#include <string_view>

#include "arith/fp.hh"
#include "core/aligned.hh"

namespace memo
{

namespace
{

/**
 * Bytes per line used for the deterministic address remapping, as a
 * shift: 32 bytes, matching the modeled cache line (kRecordedLineBytes)
 * exactly. remap() keeps an address's intra-line offset, so the remap
 * granularity must not exceed the modeled line — a coarser remap would
 * let host heap placement within the larger line leak into which
 * modeled lines the trace touches. Recorded buffers are allocated at
 * line alignment (core/aligned.hh) so the kept low bits are a pure
 * function of the workload.
 */
constexpr unsigned lineShift = 5;
static_assert((1u << lineShift) == kRecordedLineBytes);

/**
 * A call site's file name relative to the repository root: the build
 * sets MEMO_SOURCE_ROOT to the root's absolute path, which prefixes
 * every file name source_location reports. Hashing the relative part
 * keeps recorded PCs independent of where the tree is checked out.
 */
const char *
relativeToRoot(const char *file)
{
    constexpr std::string_view root = MEMO_SOURCE_ROOT;
    return std::string_view(file).starts_with(root) ? file + root.size()
                                                    : file;
}

uint32_t
fnv1a(const char *s)
{
    uint32_t h = 0x811c9dc5u;
    for (; *s; s++) {
        h ^= static_cast<uint8_t>(*s);
        h *= 0x01000193u;
    }
    return h;
}

} // anonymous namespace

Recorder::Recorder(Trace &trace)
    : trace_(trace)
{
    // Kernels touch a handful of files but thousands of cache lines;
    // pre-sizing the hash maps keeps recording from rehashing while a
    // large trace streams through.
    fileHashes.reserve(16);
    lineMap.reserve(1 << 12);
}

uint32_t
Recorder::pcOf(const std::source_location &loc)
{
    auto [it, inserted] = fileHashes.try_emplace(loc.file_name(), 0);
    if (inserted)
        it->second = fnv1a(relativeToRoot(loc.file_name()));
    return it->second ^ (loc.line() * 0x9e3779b1u) ^
           (loc.column() * 0x85ebca77u);
}

void
Recorder::forgetFreedLines()
{
    for (const LineRange &r : freed.take())
        for (uint64_t line = r.first; line <= r.last; line++)
            lineMap.erase(line);
}

uint64_t
Recorder::remap(const void *addr)
{
    uint64_t host = reinterpret_cast<uintptr_t>(addr);
    uint64_t line = host >> lineShift;
    // A host line whose buffer was freed since we numbered it (malloc
    // may hand the region to a later buffer) gets a fresh number,
    // exactly as untouched ground would: whether the allocator reuses
    // a region must not show in the trace.
    if (freed.pending()) [[unlikely]]
        forgetFreedLines();
    auto [it, inserted] = lineMap.try_emplace(line, nextLine);
    if (inserted)
        nextLine++;
    return (it->second << lineShift) | (host & ((1u << lineShift) - 1));
}

void
Recorder::pushOp(InstClass cls, uint64_t a, uint64_t b, uint64_t result,
                 const std::source_location &loc)
{
    Instruction inst;
    inst.cls = cls;
    inst.pc = pcOf(loc);
    inst.a = a;
    inst.b = b;
    inst.result = result;
    trace_.push(inst);
}

void
Recorder::recordMem(InstClass cls, const void *addr,
                    const std::source_location &loc)
{
    Instruction inst;
    inst.cls = cls;
    inst.pc = pcOf(loc);
    inst.addr = remap(addr);
    trace_.push(inst);
}

double
Recorder::mul(double a, double b, std::source_location loc)
{
    double r = a * b;
    pushOp(InstClass::FpMul, fpBits(a), fpBits(b), fpBits(r), loc);
    return r;
}

double
Recorder::div(double a, double b, std::source_location loc)
{
    double r = a / b;
    pushOp(InstClass::FpDiv, fpBits(a), fpBits(b), fpBits(r), loc);
    return r;
}

double
Recorder::sqrt(double a, std::source_location loc)
{
    double r = std::sqrt(a);
    pushOp(InstClass::FpSqrt, fpBits(a), 0, fpBits(r), loc);
    return r;
}

double
Recorder::log(double a, std::source_location loc)
{
    double r = std::log(a);
    pushOp(InstClass::FpLog, fpBits(a), 0, fpBits(r), loc);
    return r;
}

double
Recorder::sin(double a, std::source_location loc)
{
    double r = std::sin(a);
    pushOp(InstClass::FpSin, fpBits(a), 0, fpBits(r), loc);
    return r;
}

double
Recorder::cos(double a, std::source_location loc)
{
    double r = std::cos(a);
    pushOp(InstClass::FpCos, fpBits(a), 0, fpBits(r), loc);
    return r;
}

double
Recorder::exp(double a, std::source_location loc)
{
    double r = std::exp(a);
    pushOp(InstClass::FpExp, fpBits(a), 0, fpBits(r), loc);
    return r;
}

int64_t
Recorder::imul(int64_t a, int64_t b, std::source_location loc)
{
    // Multiply through uint64: hardware wrap-around semantics without
    // the signed-overflow UB (workloads do overflow 64 bits).
    int64_t r = static_cast<int64_t>(static_cast<uint64_t>(a) *
                                     static_cast<uint64_t>(b));
    pushOp(InstClass::IntMul, static_cast<uint64_t>(a),
           static_cast<uint64_t>(b), static_cast<uint64_t>(r), loc);
    return r;
}

double
Recorder::fadd(double a, double b, std::source_location loc)
{
    double r = a + b;
    pushOp(InstClass::FpAdd, fpBits(a), fpBits(b), fpBits(r), loc);
    return r;
}

double
Recorder::fsub(double a, double b, std::source_location loc)
{
    double r = a - b;
    pushOp(InstClass::FpAdd, fpBits(a), fpBits(b), fpBits(r), loc);
    return r;
}

void
Recorder::alu(unsigned n, std::source_location loc)
{
    Instruction inst;
    inst.cls = InstClass::IntAlu;
    inst.pc = pcOf(loc);
    for (unsigned i = 0; i < n; i++)
        trace_.push(inst);
}

void
Recorder::branch(std::source_location loc)
{
    Instruction inst;
    inst.cls = InstClass::Branch;
    inst.pc = pcOf(loc);
    trace_.push(inst);
}

} // namespace memo
