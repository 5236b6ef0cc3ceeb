/**
 * @file
 * Deterministic data-parallel loops over the shared ThreadPool.
 *
 * parallelFor() executes a loop body for indices [0, n) on up to
 * `jobs` workers; sweep() additionally collects one result per index
 * into an index-aligned output vector, so parallel and serial runs
 * produce byte-identical result vectors regardless of scheduling
 * order. Each index must be independent (workers own their banks and
 * hierarchies; shared inputs are immutable), which is exactly the
 * shape of the reproduction sweeps.
 */

#ifndef MEMO_EXEC_PARALLEL_HH
#define MEMO_EXEC_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "exec/thread_pool.hh"

namespace memo::exec
{

/**
 * Run @p body(i) for every i in [0, n).
 *
 * @param jobs maximum concurrent workers; 0 = ThreadPool::defaultJobs().
 *        With jobs == 1 (or n <= 1, or when called from inside a pool
 *        worker or from another parallelFor's caller leg) the loop
 *        runs inline, in index order, on the calling thread — the
 *        serial baseline path. Otherwise pool workers run the loop; if
 *        none of them starts within a millisecond, the caller runs
 *        one of the legs itself. The caller never waits for a pool
 *        worker that has not started, so the loop finishes even when
 *        every pool worker is blocked.
 * @param grain indices claimed per atomic work grab. Workers take
 *        contiguous [i, i+grain) blocks, so cheap items amortize the
 *        claim and items sharing per-block state (e.g. one kernel's
 *        images in a sweep shard) tend to land on one worker. 0 is
 *        treated as 1. Results never depend on grain — only the
 *        assignment of indices to workers does.
 *
 * The first exception thrown by any iteration is rethrown on the
 * calling thread once every worker has stopped.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body,
                 unsigned jobs = 0, size_t grain = 1);

/**
 * Map [0, n) through @p fn into an index-aligned result vector:
 * out[i] == fn(i), independent of thread count. The result type must
 * be default-constructible.
 */
template <typename Fn>
auto
sweep(size_t n, Fn &&fn, unsigned jobs = 0, size_t grain = 1)
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>>
{
    std::vector<std::decay_t<decltype(fn(size_t{0}))>> out(n);
    parallelFor(
        n, [&](size_t i) { out[i] = fn(i); }, jobs, grain);
    return out;
}

/** Map a vector of work items: out[i] == fn(items[i]). */
template <typename Item, typename Fn>
auto
sweep(const std::vector<Item> &items, Fn &&fn, unsigned jobs = 0,
      size_t grain = 1)
    -> std::vector<std::decay_t<decltype(fn(items[size_t{0}]))>>
{
    return sweep(
        items.size(), [&](size_t i) { return fn(items[i]); }, jobs,
        grain);
}

} // namespace memo::exec

#endif // MEMO_EXEC_PARALLEL_HH
