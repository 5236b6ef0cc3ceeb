#include "bench_record.hh"

#include <algorithm>
#include <cmath>
#include <thread>

#include "prof.hh"

#ifndef MEMO_GIT_SHA
#define MEMO_GIT_SHA "unknown"
#endif
#ifndef MEMO_BUILD_FLAGS
#define MEMO_BUILD_FLAGS ""
#endif

namespace memo::prof
{

EnvManifest
EnvManifest::collect()
{
    EnvManifest env;
    env.gitSha = MEMO_GIT_SHA;
#if defined(__clang__)
    env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    env.compiler = std::string("gcc ") + __VERSION__;
#else
    env.compiler = "unknown";
#endif
    env.flags = MEMO_BUILD_FLAGS;
    env.cpu = cpuModelName();
    env.hwThreads = std::thread::hardware_concurrency();
    return env;
}

double
medianOf(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
madOf(const std::vector<double> &xs, double median)
{
    if (xs.empty())
        return 0.0;
    std::vector<double> dev;
    dev.reserve(xs.size());
    for (double x : xs)
        dev.push_back(std::fabs(x - median));
    return medianOf(std::move(dev));
}

void
summarizeSamples(BenchRecord &r)
{
    r.reps = static_cast<unsigned>(r.samplesSec.size());
    r.medianSec = medianOf(r.samplesSec);
    r.madSec = madOf(r.samplesSec, r.medianSec);
    if (r.samplesSec.empty()) {
        r.minSec = r.maxSec = 0.0;
        return;
    }
    auto [lo, hi] = std::minmax_element(r.samplesSec.begin(),
                                        r.samplesSec.end());
    r.minSec = *lo;
    r.maxSec = *hi;
}

} // namespace memo::prof
