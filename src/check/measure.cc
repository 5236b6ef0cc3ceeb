#include "measure.hh"

#include <cmath>

#include "check/golden.hh"
#include "exec/parallel.hh"
#include "img/entropy.hh"
#include "img/generate.hh"
#include "sim/amdahl.hh"
#include "sim/cpu.hh"

namespace memo::check
{

const std::vector<std::string> &
speedupApps()
{
    // The nine applications of Tables 11 and 12.
    static const std::vector<std::string> apps = {
        "venhance", "vbrf", "vsqrt", "vslope", "vbpf",
        "vkmeans", "vspatial", "vgauss", "vgpwl",
    };
    return apps;
}

AppCycles
measureAppCycles(const MmKernel &kernel, const LatencyConfig &lat,
                 bool memo_mul, bool memo_div)
{
    CpuConfig cpu_cfg;
    cpu_cfg.lat = lat;
    CpuModel cpu(cpu_cfg);

    MemoBank bank;
    if (memo_mul)
        bank.addTable(Operation::FpMul, MemoConfig{});
    if (memo_div)
        bank.addTable(Operation::FpDiv, MemoConfig{});

    AppCycles acc;
    for (const auto &named : standardImages()) {
        // Shared cached trace: the speedup tables call this for up to
        // three (memo_mul, memo_div) variants and two latency presets
        // per app, and re-tracing each time dominated their runtime.
        auto trace = cachedMmKernelTrace(kernel, named, goldenCrop);

        SimResult base = cpu.run(*trace);
        acc.totalCycles += base.totalCycles;
        acc.fpDivCycles += base.cyclesOf(InstClass::FpDiv);
        acc.fpMulCycles += base.cyclesOf(InstClass::FpMul);

        if (MemoTable *t = bank.table(Operation::FpMul))
            t->flush();
        if (MemoTable *t = bank.table(Operation::FpDiv))
            t->flush();
        SimResult memo = cpu.run(*trace, &bank);
        acc.memoTotalCycles += memo.totalCycles;
    }

    if (const MemoTable *t = bank.table(Operation::FpDiv)) {
        if (t->stats().lookups)
            acc.hitRatioFpDiv = t->stats().hitRatio();
    }
    if (const MemoTable *t = bank.table(Operation::FpMul)) {
        if (t->stats().lookups)
            acc.hitRatioFpMul = t->stats().hitRatio();
    }
    return acc;
}

MmSuiteResult
measureMmSuite()
{
    MemoConfig c32;
    MemoConfig cinf;
    cinf.infinite = true;

    MmSuiteResult out;
    double s32[3] = {}, sinf[3] = {};
    int n32[3] = {}, ninf[3] = {};
    for (const auto &k : mmKernels()) {
        if (k.name == "vsqrt")
            continue; // not part of Table 7
        auto hits = measureMmKernelConfigs(k, {c32, cinf}, goldenCrop);
        MmRow row{k.name, hits[0], hits[1]};
        double h32v[3] = {row.h32.intMul, row.h32.fpMul, row.h32.fpDiv};
        double hinfv[3] = {row.hinf.intMul, row.hinf.fpMul,
                           row.hinf.fpDiv};
        for (int j = 0; j < 3; j++) {
            if (h32v[j] >= 0) {
                s32[j] += h32v[j];
                n32[j]++;
            }
            if (hinfv[j] >= 0) {
                sinf[j] += hinfv[j];
                ninf[j]++;
            }
        }
        out.rows.push_back(std::move(row));
    }
    auto avg = [](double s, int n) { return n ? s / n : -1.0; };
    out.avg32 = {avg(s32[0], n32[0]), avg(s32[1], n32[1]),
                 avg(s32[2], n32[2])};
    out.avgInf = {avg(sinf[0], ninf[0]), avg(sinf[1], ninf[1]),
                  avg(sinf[2], ninf[2])};
    return out;
}

namespace
{

/** The fast/slow latency scenarios of one speedup table. */
struct Scenario
{
    LatencyConfig fast;
    LatencyConfig slow;
    unsigned fastLat; //!< memoized unit's latency, fast scenario
    unsigned slowLat;
};

Scenario
scenarioOf(SpeedupUnit unit)
{
    switch (unit) {
      case SpeedupUnit::FpDiv:
        return {LatencyConfig::custom(3, 13),
                LatencyConfig::custom(3, 39), 13, 39};
      case SpeedupUnit::FpMul:
        return {LatencyConfig::custom(3, 13),
                LatencyConfig::custom(5, 13), 3, 5};
      case SpeedupUnit::Both:
      default:
        return {LatencyConfig::custom(3, 13),
                LatencyConfig::custom(5, 39), 0, 0};
    }
}

/** One scenario of a division- or multiplication-only row. */
SpeedupCell
singleUnitCell(const AppCycles &c, SpeedupUnit unit, unsigned unit_lat,
               double hit)
{
    SpeedupCell cell;
    uint64_t unit_cycles = unit == SpeedupUnit::FpDiv ? c.fpDivCycles
                                                      : c.fpMulCycles;
    cell.fe = static_cast<double>(unit_cycles) / c.totalCycles;
    cell.se = speedupEnhanced(unit_lat, hit);
    cell.speedup = amdahlSpeedup(cell.fe, cell.se);
    cell.measured = static_cast<double>(c.totalCycles) /
                    c.memoTotalCycles;
    return cell;
}

/** One scenario of a both-units row (Table 13's combined Amdahl). */
SpeedupCell
combinedCell(const AppCycles &c, unsigned mul_lat, unsigned div_lat)
{
    double hit_m = c.hitRatioFpMul < 0 ? 0.0 : c.hitRatioFpMul;
    double hit_d = c.hitRatioFpDiv < 0 ? 0.0 : c.hitRatioFpDiv;
    std::vector<EnhancedUnit> units = {
        {static_cast<double>(c.fpMulCycles) / c.totalCycles,
         speedupEnhanced(mul_lat, hit_m)},
        {static_cast<double>(c.fpDivCycles) / c.totalCycles,
         speedupEnhanced(div_lat, hit_d)},
    };
    SpeedupCell cell;
    cell.fe = units[0].fe + units[1].fe;
    cell.se = combinedSe(units);
    cell.speedup = amdahlSpeedupMulti(units);
    cell.measured = static_cast<double>(c.totalCycles) /
                    c.memoTotalCycles;
    return cell;
}

} // anonymous namespace

SpeedupResult
measureSpeedups(SpeedupUnit unit)
{
    Scenario sc = scenarioOf(unit);
    bool memo_mul = unit != SpeedupUnit::FpDiv;
    bool memo_div = unit != SpeedupUnit::FpMul;

    SpeedupResult out;
    out.rows = exec::sweep(speedupApps(), [&](const std::string &name) {
        const MmKernel &k = mmKernelByName(name);
        AppCycles fast =
            measureAppCycles(k, sc.fast, memo_mul, memo_div);
        AppCycles slow =
            measureAppCycles(k, sc.slow, memo_mul, memo_div);

        SpeedupRow row;
        row.app = name;
        if (unit == SpeedupUnit::Both) {
            row.fast = combinedCell(fast, 3, 13);
            row.slow = combinedCell(slow, 5, 39);
        } else {
            // The hit ratio is latency-independent; take the fast run's.
            double raw = unit == SpeedupUnit::FpDiv
                             ? fast.hitRatioFpDiv
                             : fast.hitRatioFpMul;
            row.hit = raw < 0 ? 0.0 : raw;
            row.fast = singleUnitCell(fast, unit, sc.fastLat, row.hit);
            row.slow = singleUnitCell(slow, unit, sc.slowLat, row.hit);
        }
        return row;
    });

    double sum_hit = 0.0, sum_fast = 0.0, sum_slow = 0.0;
    for (const SpeedupRow &row : out.rows) {
        sum_hit += row.hit < 0 ? 0.0 : row.hit;
        sum_fast += row.fast.speedup;
        sum_slow += row.slow.speedup;
    }
    double n = static_cast<double>(out.rows.size());
    if (unit != SpeedupUnit::Both)
        out.avgHit = sum_hit / n;
    out.avgFast = sum_fast / n;
    out.avgSlow = sum_slow / n;
    return out;
}

EntropyResult
measureEntropy()
{
    // One work item per standard image; inputs whose entropy is
    // undefined (the FLOAT images, Table 8 "-") come back invalid.
    struct Sample
    {
        bool valid = false;
        EntropyPoint point;
    };
    std::vector<Sample> samples =
        exec::sweep(standardImages(), [&](const NamedImage &ni) {
            Sample s;
            double ef = imageEntropy(ni.image);
            if (std::isnan(ef))
                return s;
            s.valid = true;
            s.point.image = ni.name;
            s.point.entropyFull = ef;
            s.point.entropyWin = windowEntropy(ni.image, 8);
            s.point.entropyWin16 = windowEntropy(ni.image, 16);

            // Pool both fp units' hits over every MM kernel (tables
            // flushed between kernels, statistics accumulated). Only
            // the fp units are read, so only they have tables.
            MemoBank bank;
            bank.addTable(Operation::FpMul, MemoConfig{});
            bank.addTable(Operation::FpDiv, MemoConfig{});
            for (const auto &k : mmKernels()) {
                if (k.name == "vsqrt")
                    continue;
                auto trace = cachedMmKernelTrace(k, ni, goldenCrop);
                bank.table(Operation::FpMul)->flush();
                bank.table(Operation::FpDiv)->flush();
                replayMemo(*trace, bank);
            }
            s.point.fpMulHit =
                bank.table(Operation::FpMul)->stats().hitRatio();
            s.point.fpDivHit =
                bank.table(Operation::FpDiv)->stats().hitRatio();
            return s;
        });

    EntropyResult out;
    std::vector<double> e_full, e_win, mul_hr, div_hr;
    for (const Sample &s : samples) {
        if (!s.valid)
            continue;
        out.points.push_back(s.point);
        e_full.push_back(s.point.entropyFull);
        e_win.push_back(s.point.entropyWin);
        mul_hr.push_back(s.point.fpMulHit);
        div_hr.push_back(s.point.fpDivHit);
    }
    out.divFull = fitLine(e_full, div_hr);
    out.divWin = fitLine(e_win, div_hr);
    out.mulFull = fitLine(e_full, mul_hr);
    out.mulWin = fitLine(e_win, mul_hr);
    return out;
}

} // namespace memo::check
