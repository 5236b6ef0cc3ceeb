/**
 * @file
 * Heap-layout invariance of recorded traces.
 *
 * Recorder::remap renumbers cache lines first-touch but keeps each
 * address's intra-line offset, so host allocator placement can leak
 * into a trace. The fix (ROADMAP: "recorded traces leak host
 * intra-line address offsets") is two-sided: remap granularity equals
 * the modeled 32-byte line, and every recorded buffer is allocated at
 * line alignment (core/aligned.hh). This regression test perturbs the
 * heap before recording — leaking blocks of awkward sizes, the way a
 * long argv string or an earlier allocation shifts later malloc
 * placements — and requires the recorded instruction stream to be
 * bit-identical, address column included. Before the fix, a 16-byte
 * shift of a workload buffer inside a 64-byte remap line moved which
 * modeled lines a kernel touched.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/experiment.hh"
#include "exec/parallel.hh"
#include "img/generate.hh"
#include "workloads/workload.hh"

namespace memo
{
namespace
{

/**
 * Fragment the heap in a @p pad-dependent way, so allocations made
 * while the returned blocks are alive land at different addresses for
 * different pads. Sizes step by 48 (not a multiple of 32) to walk
 * malloc size classes and 16-byte slots.
 */
std::vector<std::unique_ptr<char[]>>
perturbHeap(size_t pad)
{
    std::vector<std::unique_ptr<char[]>> keep;
    for (size_t i = 0; keep.size() < 16 && pad; i++)
        keep.push_back(std::make_unique<char[]>(pad + 48 * i + 1));
    return keep;
}

void
expectIdenticalTraces(const Trace &x, const Trace &y, size_t pad)
{
    ASSERT_EQ(x.size(), y.size()) << "pad " << pad;
    size_t i = 0;
    for (auto xi = x.begin(), yi = y.begin(); xi != x.end();
         ++xi, ++yi, ++i) {
        const Instruction a = *xi, b = *yi;
        ASSERT_TRUE(a.cls == b.cls && a.a == b.a && a.b == b.b &&
                    a.result == b.result && a.addr == b.addr)
            << "pad " << pad << ": record " << i << " diverged (addr "
            << a.addr << " vs " << b.addr << ")";
    }
}

// Pads chosen to land on distinct 16-byte slots of a 64-byte line.
constexpr size_t pads[] = {1, 17, 33, 49, 231, 1023};

TEST(RecordStability, MmKernelTraceHeapInvariant)
{
    // vbrf allocates a complex FFT field and scratch planes while it
    // runs; all of their addresses flow through remap().
    const MmKernel &kernel = mmKernelByName("vbrf");
    const Image &input = imageByName("chroms").image;

    Trace base = traceMmKernel(kernel, input, 64);
    for (size_t pad : pads) {
        auto keep = perturbHeap(pad);
        Trace t = traceMmKernel(kernel, input, 64);
        expectIdenticalTraces(base, t, pad);
    }
}

TEST(RecordStability, SciWorkloadTraceHeapInvariant)
{
    const SciWorkload &workload = sciWorkloadByName("TRFD");

    Trace base = traceSciWorkload(workload);
    for (size_t pad : pads) {
        auto keep = perturbHeap(pad);
        Trace t = traceSciWorkload(workload);
        expectIdenticalTraces(base, t, pad);
    }
}

TEST(RecordStability, ConcurrentRecordingIsBitIdentical)
{
    // Recorders on different threads free and reuse each other's heap
    // regions; every free reaches every live recorder, so each trace
    // is the one a serial run records, address column included.
    const MmKernel &kernel = mmKernelByName("vcost");
    const std::vector<NamedImage> &images = standardImages();
    auto record = [&](unsigned jobs) {
        return exec::sweep(
            images,
            [&](const NamedImage &img) {
                return traceMmKernel(kernel, img.image, 64);
            },
            jobs);
    };
    std::vector<Trace> serial = record(1);
    std::vector<Trace> parallel = record(4);
    ASSERT_EQ(serial.size(), images.size());
    ASSERT_EQ(parallel.size(), images.size());
    for (size_t i = 0; i < images.size(); i++) {
        SCOPED_TRACE(images[i].name);
        expectIdenticalTraces(serial[i], parallel[i], 0);
    }
}

} // anonymous namespace
} // namespace memo
