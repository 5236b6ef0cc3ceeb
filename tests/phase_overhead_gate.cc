/**
 * @file
 * phase_overhead_gate: memo-scope's phase telemetry must stay
 * near-free.
 *
 * Batched replay with a PhaseScope attached at the default window
 * (2048) costs ~1% over the bare replay on a quiet host: the replay
 * loop splits blocks into segments ending at window boundaries and
 * per-set occupancy is one flat vector (MemoTable::probeLoop in
 * core/memo_table.cc, core/phase.hh). The gate times two 8-replay
 * bodies of the cached vcost/chroms/64 trace, one bare and one with
 * telemetry, in one warm-up pair and then kReps interleaved timed
 * pairs. The bare body drives MemoTable::probeBlock over the class
 * columns itself, the loop the phase accumulator rides: replayMemo()
 * replays a bare default table keyed (MemoTable::replayKeyed), which
 * is about 2.5x faster and would measure the replay path, not the
 * phase overhead. Host drift lands on both halves of a pair, so the estimator
 * is the median of the per-pair ratios bare / phase, and it must be
 * at least kMinRatio: the measured overhead plus the noise floor of
 * a shared runner, while per-access phase bookkeeping in the loop
 * (10%+) still trips it.
 *
 * A body takes ~25 ms, so one pair's ratio swings by +-15% on a busy
 * host (0.74-1.28 seen on a shared 4-vCPU runner). Over 9 pairs the
 * median of such ratios fell to 0.88 with every core busy; over
 * kReps = 101 pairs it stayed at 0.99 there. The pair count, not a
 * looser bound, is what keeps the gate quiet on a shared machine.
 *
 * A self-check leg then proves the gate can fail: the same estimator
 * and bound over 8 bare replays against 10 (25% more work, a ratio
 * near 0.8) must land below kMinRatio.
 *
 * Exit status 0 when both hold, 1 otherwise. Takes no arguments.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

#include "analysis/experiment.hh"
#include "core/bank.hh"
#include "img/generate.hh"
#include "obs/phase.hh"
#include "prof/bench_record.hh"
#include "prof/prof.hh"
#include "workloads/workload.hh"

using namespace memo;

namespace
{

constexpr unsigned kReps = 101;
constexpr double kMinRatio = 0.95;

/**
 * @p n bare replays of @p trace, each on a fresh standard bank:
 * probeBlock over every class column in replayMemo's blocks, as
 * replayMemo() runs a table with a phase accumulator attached.
 */
void
replayBare(const Trace &trace, int n)
{
    const TraceStore &store = trace.store();
    for (int i = 0; i < n; i++) {
        MemoBank bank = MemoBank::standard(MemoConfig{});
        for (unsigned c = 0; c < numInstClasses; c++) {
            const auto cls = static_cast<InstClass>(c);
            auto op = memoOperation(cls);
            MemoTable *table = op ? bank.table(*op) : nullptr;
            if (!table)
                continue;
            const TraceStore::ClassColumns &col = store.classColumns(cls);
            const size_t m = col.a.size();
            for (size_t base = 0; base < m; base += kReplayBlock)
                table->probeBlock(col.a.data() + base,
                                  col.b.data() + base,
                                  col.r.data() + base,
                                  std::min(m - base, kReplayBlock));
        }
    }
}

/** 8 replays with phase telemetry at the default window; rows made. */
size_t
replayPhased(const Trace &trace)
{
    size_t rows = 0;
    for (int i = 0; i < 8; i++) {
        MemoBank bank = MemoBank::standard(MemoConfig{});
        obs::PhaseScope phases(bank, 2048, true);
        replayMemo(trace, bank);
        phases.finalize();
        for (const obs::PhaseProfile &p : phases.profiles())
            rows += p.rows.size();
    }
    return rows;
}

double
secondsOf(const std::function<void()> &body)
{
    uint64_t t0 = prof::nowNs();
    body();
    return static_cast<double>(prof::nowNs() - t0) / 1e9;
}

/**
 * One warm-up pair, then kReps timed pairs, @p den before @p num in
 * each; @return the median of the per-pair ratios num / den.
 */
double
pairedRatio(const std::function<void()> &num,
            const std::function<void()> &den)
{
    den();
    num();
    std::vector<double> ratios;
    for (unsigned k = 0; k < kReps; k++) {
        double d = secondsOf(den);
        ratios.push_back(secondsOf(num) / d);
    }
    return prof::medianOf(ratios);
}

} // anonymous namespace

int
main()
{
    auto trace = cachedMmKernelTrace(mmKernelByName("vcost"),
                                     imageByName("chroms"), 64);
    size_t rows = 0;
    double gate = pairedRatio([&] { replayBare(*trace, 8); },
                              [&] { rows += replayPhased(*trace); });
    std::printf("bare / phase = %.3fx over %u pairs, %zu phase rows "
                "(required >= %.2fx)\n",
                gate, kReps, rows, kMinRatio);
    double self = pairedRatio([&] { replayBare(*trace, 8); },
                              [&] { replayBare(*trace, 10); });
    std::printf("self-check: 8 / 10 bare replays = %.3fx (must be "
                "< %.2fx)\n",
                self, kMinRatio);

    if (gate < kMinRatio) {
        std::printf("FAIL: phase telemetry overhead above the bound\n");
        return 1;
    }
    if (self >= kMinRatio) {
        std::printf("FAIL: gate cannot see a 25%% cost\n");
        return 1;
    }
    return 0;
}
