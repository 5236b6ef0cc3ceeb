#include "golden.hh"

#include <cstdio>
#include <sstream>

#include "arith/units.hh"
#include "exec/parallel.hh"
#include "img/generate.hh"
#include "sim/latency.hh"

namespace memo::check
{

namespace
{

/** Exact round-trip double formatting for the canonical JSON. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonUnitHits(const UnitHits &h)
{
    return "[" + num(h.intMul) + ", " + num(h.fpMul) + ", " +
           num(h.fpDiv) + "]";
}

std::string
jsonBandRows(const std::vector<BandRow> &rows)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < rows.size(); i++) {
        if (i)
            os << ",";
        os << "\n    {\"avg\": " << num(rows[i].avg)
           << ", \"min\": " << num(rows[i].lo)
           << ", \"max\": " << num(rows[i].hi) << "}";
    }
    os << "\n  ]";
    return os.str();
}

std::string
produceTable1()
{
    Table1Result r = measureTable1();
    std::ostringstream os;
    os << "{\n  \"presets\": [";
    for (size_t i = 0; i < r.presets.size(); i++) {
        const PresetLatency &p = r.presets[i];
        os << (i ? "," : "") << "\n    {\"name\": \"" << p.name
           << "\", \"fpMul\": " << p.fpMul << ", \"fpDiv\": " << p.fpDiv
           << "}";
    }
    os << "\n  ],\n  \"units\": [";
    for (size_t i = 0; i < r.units.size(); i++) {
        os << (i ? "," : "") << "\n    {\"name\": \"" << r.units[i].name
           << "\", \"latency\": " << r.units[i].latency << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::string
produceSciSuite(const std::vector<SciWorkload> &suite)
{
    SciSuiteResult r = measureSciSuite(suite);
    std::ostringstream os;
    os << "{\n  \"rows\": [";
    for (size_t i = 0; i < r.rows.size(); i++) {
        os << (i ? "," : "") << "\n    {\"name\": \"" << r.rows[i].name
           << "\", \"h32\": " << jsonUnitHits(r.rows[i].h32)
           << ", \"hinf\": " << jsonUnitHits(r.rows[i].hinf) << "}";
    }
    os << "\n  ],\n  \"avg32\": " << jsonUnitHits(r.avg32)
       << ",\n  \"avgInf\": " << jsonUnitHits(r.avgInf) << "\n}\n";
    return os.str();
}

std::string
produceTable5()
{
    return produceSciSuite(perfectWorkloads());
}

std::string
produceTable6()
{
    return produceSciSuite(specWorkloads());
}

std::string
jsonTrivialRow(const TrivialModeRow &r)
{
    return "{\"trv\": " + num(r.trv) + ", \"all\": " + num(r.all) +
           ", \"non\": " + num(r.non) + ", \"intgr\": " + num(r.intgr) +
           "}";
}

std::string
produceTable9()
{
    struct AppRows
    {
        TrivialModeRow im, fm, fd;
    };
    const std::vector<std::string> &apps = table9Apps();
    auto rows = exec::sweep(apps, [](const std::string &name) {
        const MmKernel &k = mmKernelByName(name);
        return AppRows{measureTrivialModes(k, Operation::IntMul),
                       measureTrivialModes(k, Operation::FpMul),
                       measureTrivialModes(k, Operation::FpDiv)};
    });

    std::ostringstream os;
    os << "{\n  \"rows\": [";
    for (size_t i = 0; i < apps.size(); i++) {
        os << (i ? "," : "") << "\n    {\"name\": \"" << apps[i]
           << "\",\n     \"intMul\": " << jsonTrivialRow(rows[i].im)
           << ",\n     \"fpMul\": " << jsonTrivialRow(rows[i].fm)
           << ",\n     \"fpDiv\": " << jsonTrivialRow(rows[i].fd)
           << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::string
jsonSuiteAvg(const SuiteAvg &a)
{
    return "{\"fpMul\": " + num(a.fpMul) + ", \"fpDiv\": " +
           num(a.fpDiv) + "}";
}

std::string
produceTable10()
{
    TagModeResult r = measureTagModes();
    std::ostringstream os;
    os << "{\n  \"perfectFull\": " << jsonSuiteAvg(r.perfectFull)
       << ",\n  \"perfectMant\": " << jsonSuiteAvg(r.perfectMant)
       << ",\n  \"mmFull\": " << jsonSuiteAvg(r.mmFull)
       << ",\n  \"mmMant\": " << jsonSuiteAvg(r.mmMant) << "\n}\n";
    return os.str();
}

std::string
produceFig3()
{
    SweepBands b = measureSweepBands(fig3Configs());
    std::ostringstream os;
    os << "{\n  \"sizes\": [";
    for (size_t i = 0; i < fig3Sizes().size(); i++)
        os << (i ? ", " : "") << fig3Sizes()[i];
    os << "],\n  \"fpDiv\": " << jsonBandRows(b.fpDiv)
       << ",\n  \"fpMul\": " << jsonBandRows(b.fpMul) << "\n}\n";
    return os.str();
}

std::string
produceFig4()
{
    SweepBands b = measureSweepBands(fig4Configs());
    std::ostringstream os;
    os << "{\n  \"ways\": [";
    for (size_t i = 0; i < fig4Ways().size(); i++)
        os << (i ? ", " : "") << fig4Ways()[i];
    os << "],\n  \"fpDiv\": " << jsonBandRows(b.fpDiv)
       << ",\n  \"fpMul\": " << jsonBandRows(b.fpMul) << "\n}\n";
    return os.str();
}

} // anonymous namespace

Table1Result
measureTable1()
{
    Table1Result r;
    for (CpuPreset p : LatencyConfig::table1Presets()) {
        LatencyConfig cfg = LatencyConfig::preset(p);
        r.presets.push_back(PresetLatency{
            presetName(p), cfg[InstClass::FpMul], cfg[InstClass::FpDiv]});
    }
    r.units = {
        {"srt-divider-r2", 1, SrtDivider(1, 3).latency()},
        {"srt-divider-r4", 2, SrtDivider(2, 3).latency()},
        {"srt-divider-r16", 4, SrtDivider(4, 3).latency()},
        {"booth4-multiplier", 2, SequentialMultiplier(2, 1).latency()},
        {"tree-multiplier", 18, SequentialMultiplier(18, 1).latency()},
        {"digit-recurrence-sqrt", 2, DigitRecurrenceSqrt(2, 3).latency()},
    };
    return r;
}

SciSuiteResult
measureSciSuite(const std::vector<SciWorkload> &suite)
{
    MemoConfig c32;
    MemoConfig cinf;
    cinf.infinite = true;

    struct Pair
    {
        UnitHits h32, hinf;
    };
    auto pairs = exec::sweep(suite, [&](const SciWorkload &w) {
        return Pair{measureSci(w, c32), measureSci(w, cinf)};
    });

    SciSuiteResult r;
    double s32[3] = {}, sinf[3] = {};
    int n32[3] = {}, ninf[3] = {};
    for (size_t wi = 0; wi < suite.size(); wi++) {
        r.rows.push_back(
            SciRow{suite[wi].name, pairs[wi].h32, pairs[wi].hinf});
        double h32v[3] = {pairs[wi].h32.intMul, pairs[wi].h32.fpMul,
                          pairs[wi].h32.fpDiv};
        double hinfv[3] = {pairs[wi].hinf.intMul, pairs[wi].hinf.fpMul,
                           pairs[wi].hinf.fpDiv};
        for (int k = 0; k < 3; k++) {
            if (h32v[k] >= 0) {
                s32[k] += h32v[k];
                n32[k]++;
            }
            if (hinfv[k] >= 0) {
                sinf[k] += hinfv[k];
                ninf[k]++;
            }
        }
    }
    auto avg = [](double s, int n) { return n ? s / n : -1.0; };
    r.avg32 = UnitHits{avg(s32[0], n32[0]), avg(s32[1], n32[1]),
                       avg(s32[2], n32[2])};
    r.avgInf = UnitHits{avg(sinf[0], ninf[0]), avg(sinf[1], ninf[1]),
                        avg(sinf[2], ninf[2])};
    return r;
}

TrivialModeRow
measureTrivialModes(const MmKernel &kernel, Operation op)
{
    TrivialModeRow row;
    double *slots[3] = {&row.all, &row.non, &row.intgr};
    TrivialMode modes[3] = {TrivialMode::CacheAll,
                            TrivialMode::NonTrivialOnly,
                            TrivialMode::Integrated};
    for (int m = 0; m < 3; m++) {
        MemoConfig cfg;
        cfg.trivialMode = modes[m];
        // Only op's table is read, so it is the only one replayed.
        MemoBank bank;
        bank.addTable(op, cfg);
        for (const auto &ni : standardImages()) {
            auto trace = cachedMmKernelTrace(kernel, ni, goldenCrop);
            bank.table(op)->flush();
            replayMemo(*trace, bank);
        }
        const MemoStats &s = bank.table(op)->stats();
        if (s.lookups)
            *slots[m] = s.hitRatio();
        if (m == 1) // NonTrivialOnly also yields the trivial fraction
            row.trv = s.lookups + s.trivialBypassed
                          ? s.trivialFraction()
                          : -1.0;
    }
    return row;
}

const std::vector<std::string> &
table9Apps()
{
    static const std::vector<std::string> apps = {
        "vdiff", "vcost", "vgauss", "vspatial",
        "vslope", "vgef", "vdetilt", "venhance",
    };
    return apps;
}

TagModeResult
measureTagModes()
{
    MemoConfig full;
    MemoConfig mant;
    mant.tagMode = TagMode::MantissaOnly;

    TagModeResult r;

    // Perfect suite: independent measurements per tag mode.
    for (auto [cfg, out] : {std::pair{&full, &r.perfectFull},
                            std::pair{&mant, &r.perfectMant}}) {
        auto per_workload = exec::sweep(
            perfectWorkloads(),
            [&](const SciWorkload &w) { return measureSci(w, *cfg); });
        int nm = 0, nd = 0;
        for (const UnitHits &h : per_workload) {
            if (h.fpMul >= 0) {
                out->fpMul += h.fpMul;
                nm++;
            }
            if (h.fpDiv >= 0) {
                out->fpDiv += h.fpDiv;
                nd++;
            }
        }
        out->fpMul /= nm;
        out->fpDiv /= nd;
    }

    // MM suite: both configs measured over shared cached traces.
    // vsqrt is excluded, matching Table 10's eight fp applications.
    auto per_kernel = exec::sweep(mmKernels(), [&](const MmKernel &k) {
        if (k.name == "vsqrt")
            return std::vector<UnitHits>{};
        return measureMmKernelConfigs(k, {full, mant}, goldenCrop);
    });

    int nm = 0, nd = 0;
    for (const auto &hits : per_kernel) {
        if (hits.empty())
            continue;
        if (hits[0].fpMul >= 0) {
            r.mmFull.fpMul += hits[0].fpMul;
            r.mmMant.fpMul += hits[1].fpMul;
            nm++;
        }
        if (hits[0].fpDiv >= 0) {
            r.mmFull.fpDiv += hits[0].fpDiv;
            r.mmMant.fpDiv += hits[1].fpDiv;
            nd++;
        }
    }
    r.mmFull.fpMul /= nm;
    r.mmMant.fpMul /= nm;
    r.mmFull.fpDiv /= nd;
    r.mmMant.fpDiv /= nd;
    return r;
}

SweepBands
measureSweepBands(const std::vector<MemoConfig> &cfgs)
{
    auto all = exec::sweep(sweepKernelNames(), [&](const std::string &n) {
        return measureMmKernelConfigs(mmKernelByName(n), cfgs,
                                      goldenCrop);
    });

    SweepBands bands;
    for (size_t s = 0; s < cfgs.size(); s++) {
        for (bool div_unit : {true, false}) {
            BandRow row;
            double sum = 0.0, lo = 1.0, hi = 0.0;
            int n = 0;
            for (const auto &per_kernel : all) {
                double hr = div_unit ? per_kernel[s].fpDiv
                                     : per_kernel[s].fpMul;
                if (hr < 0)
                    continue;
                sum += hr;
                lo = std::min(lo, hr);
                hi = std::max(hi, hr);
                n++;
            }
            if (n) {
                row.avg = sum / n;
                row.lo = lo;
                row.hi = hi;
            }
            (div_unit ? bands.fpDiv : bands.fpMul).push_back(row);
        }
    }
    return bands;
}

const std::vector<unsigned> &
fig3Sizes()
{
    static const std::vector<unsigned> sizes = {
        8u, 16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u, 4096u,
        8192u};
    return sizes;
}

const std::vector<unsigned> &
fig4Ways()
{
    static const std::vector<unsigned> ways = {1u, 2u, 4u, 8u};
    return ways;
}

std::vector<MemoConfig>
fig3Configs()
{
    std::vector<MemoConfig> cfgs;
    for (unsigned entries : fig3Sizes()) {
        MemoConfig cfg;
        cfg.entries = entries;
        cfg.ways = 4;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

std::vector<MemoConfig>
fig4Configs()
{
    std::vector<MemoConfig> cfgs;
    for (unsigned ways : fig4Ways()) {
        MemoConfig cfg;
        cfg.entries = 32;
        cfg.ways = ways;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

const std::vector<GoldenDoc> &
goldenDocs()
{
    static const std::vector<GoldenDoc> docs = {
        {"table1", produceTable1},   {"table5", produceTable5},
        {"table6", produceTable6},   {"fig4", produceFig4},
        {"table10", produceTable10}, {"table9", produceTable9},
        {"fig3", produceFig3},
    };
    return docs;
}

} // namespace memo::check
