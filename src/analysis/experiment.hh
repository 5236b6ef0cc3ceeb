/**
 * @file
 * Experiment driver: turns workloads into traces and traces into
 * per-unit MEMO-TABLE hit ratios, the quantities the paper's tables
 * report.
 */

#ifndef MEMO_ANALYSIS_EXPERIMENT_HH
#define MEMO_ANALYSIS_EXPERIMENT_HH

#include <memory>

#include "core/bank.hh"
#include "img/generate.hh"
#include "img/image.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace memo
{

/**
 * Centre-crop an image for trace generation. Full-size 1990s inputs
 * yield multi-hundred-megabyte traces; hit ratios are driven by local
 * value statistics, which a centred crop preserves.
 */
Image cropForTrace(const Image &img, int max_dim = 128);

/** Record one MM kernel over one input image. */
Trace traceMmKernel(const MmKernel &kernel, const Image &input,
                    int max_dim = 128);

/** Record one scientific workload. */
Trace traceSciWorkload(const SciWorkload &workload);

/**
 * Shared, cached trace of @p kernel over standard image @p input:
 * the process-wide exec::TraceCache generates it at most once and all
 * callers (including concurrent sweep workers) replay the same
 * immutable instance.
 */
std::shared_ptr<const Trace>
cachedMmKernelTrace(const MmKernel &kernel, const NamedImage &input,
                    int max_dim = 128);

/** Shared, cached trace of a scientific workload. */
std::shared_ptr<const Trace>
cachedSciTrace(const SciWorkload &workload);

/**
 * Accesses gathered per batch-probe call by the blocked replay loop.
 * Exposed so the differential tests can pin behaviour exactly at and
 * around block boundaries (lengths block-1, block, block+1).
 */
constexpr size_t kReplayBlock = 4096;

/**
 * Feed every memoizable instruction of a trace through the bank.
 *
 * The hot path. Each table of the bank gets its class's operand
 * column (TraceStore::classColumns) in trace order, by one of two
 * paths chosen per table and per call:
 *
 *  - keyed, when MemoTable::keyedReplayable(n) holds for the
 *    column's n accesses: full-value tags, the default trivial policy
 *    (NonTrivialOnly, basic set), LRU or FIFO, a finite table of at
 *    most 8 ways whose index bits the key fields hold, no hooks, phase
 *    accumulator or parity, no valid entry (fresh or flushed), and n
 *    below the 32-bit tick range. The table replays the store's key
 *    stream (TraceStore::accessKeys, built by the first replay that
 *    needs it and shared by every later one) through
 *    MemoTable::replayKeyed;
 *  - otherwise MemoTable::probeBlock, in blocks of kReplayBlock.
 *
 * No flag selects the path. Either way the table ends exactly as n
 * scalar lookup/update calls leave it — statistics, entries, ticks
 * and clock — so callers that keep a bank across calls, and the
 * registry fold below, see no difference. The oracle chain is keyed
 * → probeBlock → scalar lookup/update: tests/test_replay_keyed.cc
 * and the memo-fuzz keyed-replay kind hold keyed replay to
 * probeBlock, tests/test_replay_batched.cc (against its scalar
 * replayMemoReference) and the batched-replay kind hold probeBlock
 * to the scalar calls.
 */
void replayMemo(const Trace &trace, MemoBank &bank);

/** Hit ratios of the three paper units; negative when the unit saw no
 *  non-trivial traffic. */
struct UnitHits
{
    double intMul = -1.0;
    double fpMul = -1.0;
    double fpDiv = -1.0;
};

/** Extract per-unit hit ratios from a bank. */
UnitHits hitsOf(const MemoBank &bank);

/**
 * Hit ratios of an MM kernel aggregated over the standard image set
 * (tables flushed between inputs, hits/lookups pooled), mirroring the
 * paper's 8-14 inputs per application.
 */
UnitHits measureMmKernel(const MmKernel &kernel, const MemoConfig &cfg,
                         int max_dim = 128);

/** Hit ratios of one (kernel, image) pair. */
UnitHits measureMmKernelOnImage(const MmKernel &kernel,
                                const Image &input,
                                const MemoConfig &cfg,
                                int max_dim = 128);

/** Hit ratios of a scientific workload. */
UnitHits measureSci(const SciWorkload &workload, const MemoConfig &cfg);

/**
 * Measure one MM kernel under many table configurations while
 * generating each (kernel, image) trace only once — the sweeps'
 * workhorse (Figures 3/4, Tables 9/10).
 *
 * Configurations are measured in parallel on up to @p jobs workers
 * (0 = exec::ThreadPool::defaultJobs(), 1 = serial); each worker owns
 * its MemoBank and replays the shared cached traces, so the returned
 * vector is bit-identical for every thread count.
 *
 * @return one UnitHits per configuration, index-aligned with @p cfgs
 */
std::vector<UnitHits> measureMmKernelConfigs(
    const MmKernel &kernel, const std::vector<MemoConfig> &cfgs,
    int max_dim = 128, unsigned jobs = 0);

} // namespace memo

#endif // MEMO_ANALYSIS_EXPERIMENT_HH
