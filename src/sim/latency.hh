/**
 * @file
 * Per-instruction-class latency configurations.
 *
 * Table 1 of the paper lists the fp multiply/divide latencies of six
 * contemporary microprocessors; the speedup experiments (Tables 11-13)
 * use a "fast" FPU (3-cycle multiply, 13-cycle divide) and a "slow" one
 * (5-cycle multiply, 39-cycle divide). All of these are available as
 * presets; everything else (ALU, branch, memory base latency) uses
 * era-appropriate single-cycle values.
 */

#ifndef MEMO_SIM_LATENCY_HH
#define MEMO_SIM_LATENCY_HH

#include <array>
#include <string>
#include <vector>

#include "trace/instruction.hh"

namespace memo
{

/** Named latency presets. */
enum class CpuPreset
{
    FastFpu,      //!< fp mul 3, fp div 13 (Tables 11-13 "fast")
    SlowFpu,      //!< fp mul 5, fp div 39 (Tables 11-13 "slow")
    PentiumPro,   //!< 3 / 39
    Alpha21164,   //!< 4 / 31
    MipsR10000,   //!< 2 / 40
    Ppc604e,      //!< 5 / 31
    UltraSparcII, //!< 3 / 22
    Pa8000,       //!< 5 / 31
};

/** Latency in cycles of each instruction class. */
struct LatencyConfig
{
    std::string name;
    std::array<unsigned, numInstClasses> latency{};

    unsigned
    operator[](InstClass cls) const
    {
        return latency[static_cast<unsigned>(cls)];
    }

    unsigned &
    operator[](InstClass cls)
    {
        return latency[static_cast<unsigned>(cls)];
    }

    /** Build the named preset. */
    static LatencyConfig preset(CpuPreset p);

    /**
     * Build a custom FPU: @p fp_mul / @p fp_div cycle multiply and
     * divide over the standard single-cycle base machine.
     */
    static LatencyConfig custom(unsigned fp_mul, unsigned fp_div,
                                const std::string &name = "custom");

    /** All presets of Table 1, for check::measureTable1(). */
    static const std::vector<CpuPreset> &table1Presets();
};

/** Printable preset name. */
std::string presetName(CpuPreset p);

/**
 * Cycles one memo hit of @p op saves under @p lat: the unit's full
 * latency minus the single cycle the table lookup costs (section 2
 * of the paper; SimResult::memoSaved is the whole-run form). The
 * phase engine multiplies this by a window's hit delta for its
 * memo-saved-cycles-per-window series (obs::PhaseProfile).
 */
inline uint64_t
memoSavedPerHit(const LatencyConfig &lat, Operation op)
{
    unsigned latency = lat[instClassOf(op)];
    return latency > 1 ? latency - 1 : 0;
}

} // namespace memo

#endif // MEMO_SIM_LATENCY_HH
