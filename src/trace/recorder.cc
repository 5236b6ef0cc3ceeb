#include "recorder.hh"

#include <cmath>

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

} // anonymous namespace

Recorder::Recorder(Trace &trace)
    : trace_(trace)
{
    // Kernels touch thousands of cache lines; pre-sizing the line map
    // keeps recording from rehashing while a large trace streams
    // through.
    lineMap.reserve(1 << 12);
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
Recorder::pushOp(InstClass cls, uint64_t a, uint64_t b, uint64_t result)
{
    Instruction inst;
    inst.cls = cls;
    inst.a = a;
    inst.b = b;
    inst.result = result;
    trace_.push(inst);
}

void
Recorder::recordMem(InstClass cls, const void *addr)
{
    Instruction inst;
    inst.cls = cls;
    inst.addr = remap(addr);
    trace_.push(inst);
}

void
Recorder::pushClass(InstClass cls)
{
    Instruction inst;
    inst.cls = cls;
    trace_.push(inst);
}

double
Recorder::mul(double a, double b)
{
    double r = a * b;
    pushOp(InstClass::FpMul, fpBits(a), fpBits(b), fpBits(r));
    return r;
}

double
Recorder::div(double a, double b)
{
    double r = a / b;
    pushOp(InstClass::FpDiv, fpBits(a), fpBits(b), fpBits(r));
    return r;
}

double
Recorder::sqrt(double a)
{
    double r = std::sqrt(a);
    pushOp(InstClass::FpSqrt, fpBits(a), 0, fpBits(r));
    return r;
}

double
Recorder::log(double a)
{
    double r = std::log(a);
    pushOp(InstClass::FpLog, fpBits(a), 0, fpBits(r));
    return r;
}

double
Recorder::sin(double a)
{
    double r = std::sin(a);
    pushOp(InstClass::FpSin, fpBits(a), 0, fpBits(r));
    return r;
}

double
Recorder::cos(double a)
{
    double r = std::cos(a);
    pushOp(InstClass::FpCos, fpBits(a), 0, fpBits(r));
    return r;
}

double
Recorder::exp(double a)
{
    double r = std::exp(a);
    pushOp(InstClass::FpExp, fpBits(a), 0, fpBits(r));
    return r;
}

int64_t
Recorder::imul(int64_t a, int64_t b)
{
    // Multiply through uint64: hardware wrap-around semantics without
    // the signed-overflow UB (workloads do overflow 64 bits).
    int64_t r = static_cast<int64_t>(static_cast<uint64_t>(a) *
                                     static_cast<uint64_t>(b));
    pushOp(InstClass::IntMul, static_cast<uint64_t>(a),
           static_cast<uint64_t>(b), static_cast<uint64_t>(r));
    return r;
}

double
Recorder::fadd(double a, double b)
{
    double r = a + b;
    pushClass(InstClass::FpAdd);
    return r;
}

double
Recorder::fsub(double a, double b)
{
    double r = a - b;
    pushClass(InstClass::FpAdd);
    return r;
}

void
Recorder::alu(unsigned n)
{
    for (unsigned i = 0; i < n; i++)
        pushClass(InstClass::IntAlu);
}

void
Recorder::branch()
{
    pushClass(InstClass::Branch);
}

} // namespace memo
