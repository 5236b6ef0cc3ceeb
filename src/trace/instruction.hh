/**
 * @file
 * Dynamic instruction records.
 *
 * The paper's methodology is trace driven: Shade executes SPARC binaries
 * and breaks on multiplication/division instructions, feeding register
 * values into software-simulated MEMO-TABLEs, while also collecting the
 * frequency breakdown of all instructions. Our Instruction record holds
 * exactly that information: an instruction class, the operand/result
 * values of memoizable operations, and the effective address of memory
 * operations (for the two-level cache model of section 3.3).
 */

#ifndef MEMO_TRACE_INSTRUCTION_HH
#define MEMO_TRACE_INSTRUCTION_HH

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/op.hh"

namespace memo
{

/** Dynamic instruction classes distinguished by the simulator. */
enum class InstClass : uint8_t
{
    IntAlu,  //!< single-cycle integer ops (add, logic, shifts, compares)
    IntMul,  //!< integer multiplication (memoizable)
    FpAdd,   //!< fp add/subtract
    FpMul,   //!< fp multiplication (memoizable)
    FpDiv,   //!< fp division (memoizable)
    FpSqrt,  //!< fp square root (extension)
    FpLog,   //!< logarithm (extension)
    FpSin,   //!< sine (extension)
    FpCos,   //!< cosine (extension)
    FpExp,   //!< exponential (extension)
    Load,    //!< memory read
    Store,   //!< memory write
    Branch,  //!< control transfer
    NumClasses,
};

constexpr unsigned numInstClasses =
    static_cast<unsigned>(InstClass::NumClasses);

/** Printable instruction-class name. */
std::string_view instClassName(InstClass cls);

/** The memoizable Operation of an instruction class, if any. */
std::optional<Operation> memoOperation(InstClass cls);

/** The instruction class executing a memoizable Operation. */
InstClass instClassOf(Operation op);

/** One dynamic instruction. */
struct Instruction
{
    InstClass cls = InstClass::IntAlu;
    uint64_t a = 0;      //!< first operand bits (memoizable ops)
    uint64_t b = 0;      //!< second operand bits
    uint64_t result = 0; //!< result bits
    uint64_t addr = 0;   //!< effective address (Load/Store)
};

} // namespace memo

#endif // MEMO_TRACE_INSTRUCTION_HH
