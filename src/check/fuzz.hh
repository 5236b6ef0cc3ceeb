/**
 * @file
 * Seeded differential fuzzer for the MEMO-TABLE.
 *
 * Each fuzz case derives a private RNG from (seed, case index) and
 * draws one of five kinds. Three in seven cases draw a random table
 * geometry and policy and an adversarial operand stream (NaN payloads,
 * denormals, signed zeros, trivial operands, tag-aliasing and
 * exponent-aliasing patterns, heavy value reuse) and replay it through
 * the MemoTable-vs-oracle checker of differ.hh. The others replay such
 * a stream through MemoTable::probeBlock against the scalar
 * lookup/update path; key it (MemoTable::keyAccesses) and replay it
 * through MemoTable::replayKeyed against probeBlock, on a geometry
 * keyed replay admits; replay a random instruction trace under a
 * random memory hierarchy through memoized and baseline CpuModel runs
 * — a run that walks the hierarchy, runs that read the memory pass it
 * left on the store, and a run under a second geometry — against
 * check::referenceCpuRun, and check cycle/stats conservation; or
 * round-trip a random trace through the spill tier's
 * chunk codec (trace/chunk_codec.hh), where decode must be bit-exact
 * and any single-bit corruption must be rejected with SpillError.
 * Everything is deterministic: the same --seed/--iters reproduce the
 * same verdicts on any platform, and a failing stream is shrunk
 * (greedy chunk removal) before being reported as a one-line repro.
 *
 * The mutation self-test (mutationSelfTest) deliberately injects
 * four bugs and requires all be caught: a tag-comparison bug — the
 * real table sees operand A with its top 16 bits forced to zero, the
 * oracle sees the true operand — producing false hits; a
 * block-boundary off-by-one in the batched-replay differential — the
 * probeBlock side silently drops the last access of every full block;
 * an off-by-one victim way in keyed replay (setKeyedVictimFault); and
 * a memory-pass geometry key that ignores the L2 hit latency
 * (setMemoryPassKeyFault), so a run reads another geometry's pass.
 * CI runs it to prove the oracles have teeth (see docs/TESTING.md).
 */

#ifndef MEMO_CHECK_FUZZ_HH
#define MEMO_CHECK_FUZZ_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/config.hh"
#include "core/op.hh"

namespace memo::check
{

/** Deterministic splitmix64 stream; the fuzzer's only entropy source. */
class FuzzRng
{
  public:
    explicit FuzzRng(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n must be nonzero. */
    uint64_t below(uint64_t n) { return next() % n; }

    /** True with probability num/den. */
    bool chance(uint64_t num, uint64_t den) { return below(den) < num; }

  private:
    uint64_t state;
};

/** Fuzzing campaign parameters (the memo_fuzz CLI flags). */
struct FuzzOptions
{
    uint64_t seed = 1;
    uint64_t iters = 1000;
    /** Accesses per fuzz case. */
    unsigned streamLen = 256;
    bool verbose = false;
    /**
     * Optional progress sink: fuzz() adds 1 per completed case when
     * non-null (display only; verdicts never depend on it). The
     * memo-fuzz --progress flag wires a prof::Heartbeat counter here.
     */
    std::atomic<uint64_t> *progress = nullptr;
};

/** A reproduced invariant violation. */
struct FuzzFailure
{
    uint64_t caseIndex = 0; //!< which iteration failed
    std::string kind;       //!< harness kind (memo-table, cpu, ...)
    std::string what;       //!< the violated invariant
    std::string repro;      //!< one-line repro command
    std::string detail;     //!< shrunk stream / configuration dump
};

/** Random but always-valid table geometry/policy. */
MemoConfig fuzzConfig(FuzzRng &rng);

/** Random operation, biased toward the three paper units. */
Operation fuzzOperation(FuzzRng &rng);

/**
 * The bit pattern the computation unit produces for this operation and
 * operand pair (the fuzzer's ground truth). Integer multiplication
 * wraps modulo 2^64; fp operations are the host's IEEE results.
 */
uint64_t computeResult(Operation op, uint64_t a_bits, uint64_t b_bits);

/**
 * Run one fuzz case. @return the (shrunk) failure, or nullopt.
 */
std::optional<FuzzFailure> runFuzzCase(uint64_t case_index,
                                       const FuzzOptions &opts);

/**
 * Run the whole campaign; stops at the first failure.
 *
 * @param log when non-null, progress and failures are printed here
 * @return the first failure, or nullopt when all cases pass
 */
std::optional<FuzzFailure> fuzz(const FuzzOptions &opts,
                                std::ostream *log = nullptr);

/**
 * Mutation smoke test: rerun the MemoTable differential with an
 * injected tag-comparison bug, the batched-replay differential with
 * an injected block-boundary off-by-one, the keyed-replay
 * differential with an injected victim off-by-one and the
 * cpu-differential with a memory-pass key that ignores the L2 hit
 * latency, requiring the harness to catch all four.
 *
 * @return true when the oracles detected every injected bug
 */
bool mutationSelfTest(const FuzzOptions &opts,
                      std::ostream *log = nullptr);

} // namespace memo::check

#endif // MEMO_CHECK_FUZZ_HH
