/**
 * @file
 * Tests for the synthetic image generators: the standard set must
 * match the paper's Table 8 geometry and land near its entropy
 * profile, deterministically.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "exec/thread_pool.hh"
#include "img/entropy.hh"
#include "img/generate.hh"

namespace memo
{
namespace
{

TEST(Generate, StandardSetHasFourteenImages)
{
    EXPECT_EQ(standardImages().size(), 14u);
}

TEST(Generate, GeometryMatchesTable8)
{
    const auto &mandrill = imageByName("mandrill");
    EXPECT_EQ(mandrill.image.width(), 256);
    EXPECT_EQ(mandrill.image.height(), 256);
    EXPECT_EQ(mandrill.image.bands(), 1);
    EXPECT_EQ(mandrill.image.type(), PixelType::Byte);

    const auto &lablabel = imageByName("lablabel");
    EXPECT_EQ(lablabel.image.width(), 486);
    EXPECT_EQ(lablabel.image.height(), 243);
    EXPECT_EQ(lablabel.image.type(), PixelType::Integer);

    const auto &head = imageByName("head");
    EXPECT_EQ(head.image.type(), PixelType::Float);

    const auto &lenna = imageByName("lenna.rgb");
    EXPECT_EQ(lenna.image.bands(), 3);
    EXPECT_EQ(lenna.image.width(), 480);
    EXPECT_EQ(lenna.image.height(), 512);
}

TEST(Generate, UnknownNameThrows)
{
    EXPECT_THROW(imageByName("no-such-image"), std::out_of_range);
}

TEST(Generate, EntropiesTrackPaperProfile)
{
    for (const auto &ni : standardImages()) {
        if (std::isnan(ni.paperEntropyFull))
            continue;
        double full = imageEntropy(ni.image);
        double e8 = windowEntropy(ni.image, 8);
        EXPECT_NEAR(full, ni.paperEntropyFull, 0.75) << ni.name;
        EXPECT_NEAR(e8, ni.paperEntropy8, 1.1) << ni.name;
        // Windowed entropy is always below the full-image entropy.
        EXPECT_LT(e8, full + 1e-9) << ni.name;
    }
}

TEST(Generate, EntropyOrderingPreserved)
{
    // The key property behind Figure 2: the generated set must span
    // the same low-to-high entropy ordering as the paper's inputs.
    double fractal = imageEntropy(imageByName("fractal").image);
    double lablabel = imageEntropy(imageByName("lablabel").image);
    double airport = imageEntropy(imageByName("airport1").image);
    double mandrill = imageEntropy(imageByName("mandrill").image);
    double lenna = imageEntropy(imageByName("lenna.rgb").image);

    EXPECT_LT(fractal, lablabel);
    EXPECT_LT(lablabel, airport);
    EXPECT_LT(airport, mandrill);
    EXPECT_LT(mandrill, lenna + 0.7);
}

TEST(Generate, Deterministic)
{
    Image a = genNatural(64, 64, 1, 42, 10.0, 4, 0.6);
    Image b = genNatural(64, 64, 1, 42, 10.0, 4, 0.6);
    EXPECT_EQ(a.raw(), b.raw());

    Image c = genNatural(64, 64, 1, 43, 10.0, 4, 0.6);
    EXPECT_NE(a.raw(), c.raw());
}

TEST(Generate, PosterizeControlsAlphabet)
{
    Image coarse = genNatural(128, 128, 1, 7, 12.0, 4, 0.6, 16);
    Image fine = genNatural(128, 128, 1, 7, 12.0, 4, 0.6, 256);
    EXPECT_LT(imageEntropy(coarse), imageEntropy(fine));
    EXPECT_LE(imageEntropy(coarse), 4.0); // 16 levels -> <= 4 bits
}

TEST(Generate, GammaSkewsDark)
{
    Image flat = genNatural(128, 128, 1, 7, 12.0, 4, 0.6, 256, 1.0);
    Image dark = genNatural(128, 128, 1, 7, 12.0, 4, 0.6, 256, 4.0);
    double mean_flat = 0, mean_dark = 0;
    for (float v : flat.raw())
        mean_flat += v;
    for (float v : dark.raw())
        mean_dark += v;
    EXPECT_LT(mean_dark, mean_flat);
}

TEST(Generate, EqualizeRaisesPooledEntropy)
{
    // Equalization cannot raise a single band's entropy (the remap is
    // a function of the quantized value), but it evens out the pooled
    // histogram of multi-band images — which is what Table 8 reports
    // for the .rgb inputs.
    Image plain = genNatural(256, 256, 3, 7, 8.0, 6, 0.65);
    Image eq = genNatural(256, 256, 3, 7, 8.0, 6, 0.65, 256, 1.0,
                          true);
    EXPECT_GT(imageEntropy(eq), imageEntropy(plain));
    EXPECT_GT(imageEntropy(eq), 7.5);
}

TEST(Generate, LabelsUseSmallAlphabet)
{
    Image labels = genLabels(128, 128, 10, 99);
    EXPECT_EQ(labels.type(), PixelType::Integer);
    double max = labels.maxValue();
    EXPECT_LT(max, 10.0f);
    EXPECT_LE(imageEntropy(labels), std::log2(10.0) + 1e-9);
}

TEST(Generate, FractalIsLowEntropy)
{
    Image f = genFractal(128, 128, 24, 5);
    EXPECT_LT(imageEntropy(f), 3.0);
}

/** Run @p make; expect std::invalid_argument naming @p arg. */
template <typename Fn>
void
expectRejects(Fn &&make, const std::string &arg)
{
    try {
        make();
        ADD_FAILURE() << "no exception for " << arg;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(arg), std::string::npos)
            << e.what();
    }
}

TEST(Generate, LabelsRejectZeroLabels)
{
    expectRejects([] { return genLabels(16, 16, 0, 1); }, "num_labels");
}

TEST(Generate, FractalRejectsOnePixelWidth)
{
    expectRejects([] { return genFractal(1, 16, 24, 1); }, "w ");
}

TEST(Generate, FractalRejectsOnePixelHeight)
{
    expectRejects([] { return genFractal(16, 1, 24, 1); }, "h ");
}

TEST(Generate, GradientRejectsOnePixelWidth)
{
    expectRejects([] { return genGradient(1, 4); }, "w ");
}

TEST(Generate, NaturalRejectsNonPositiveScale)
{
    expectRejects([] { return genNatural(16, 16, 1, 1, 0.0, 3, 0.6); },
                  "base_scale");
    expectRejects([] { return genNatural(16, 16, 1, 1, -2.0, 3, 0.6); },
                  "base_scale");
    expectRejects(
        [] {
            return genNatural(16, 16, 1, 1,
                              std::numeric_limits<double>::quiet_NaN(),
                              3, 0.6);
        },
        "base_scale");
}

TEST(Generate, NaturalRejectsNoOctaves)
{
    expectRejects([] { return genNatural(16, 16, 1, 1, 4.0, 0, 0.6); },
                  "octaves");
}

TEST(Generate, GradientRamp)
{
    Image g = genGradient(256, 4);
    EXPECT_EQ(g.at(0, 0), 0.0f);
    EXPECT_EQ(g.at(255, 0), 255.0f);
    EXPECT_LE(g.at(100, 1), g.at(200, 1));
}

/** FNV-1a over the sample bit patterns. */
uint64_t
imageChecksum(const Image &img)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (float s : img.raw()) {
        uint32_t bits;
        std::memcpy(&bits, &s, sizeof(bits));
        for (int i = 0; i < 4; i++) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/**
 * Checksums of the 14 standard images, pinned on the generators as
 * they were before they went row-parallel.
 */
const std::pair<const char *, uint64_t> kStandardPins[] = {
    {"mandrill", 0xe85a1de0f3d01b2cULL},
    {"nature", 0xe8e0686620520b3bULL},
    {"Muppet1", 0x9cad54f2bc83ec6cULL},
    {"guya", 0xdcb9485b1195ed89ULL},
    {"star", 0xa775ce80bee88781ULL},
    {"chroms", 0xe30979c7bfa46888ULL},
    {"airport1", 0xb10ffcf5222db3aaULL},
    {"lablabel", 0x5df8ce27dd469fc5ULL},
    {"fractal", 0xc01a9c4044a6cc25ULL},
    {"head", 0x314ac68abd1c6606ULL},
    {"spine", 0x0fdf503ce05853abULL},
    {"lenna.rgb", 0xb8f4dbce2e880a30ULL},
    {"mandril.rgb", 0xef9941535662e04bULL},
    {"lizard.rgb", 0x7034c7f06370e261ULL},
};

/**
 * The 14 generator calls of standardImages(), in order, with the seed
 * of image i left open (standardImages() uses 1001 + i).
 */
Image
standardCall(size_t i, uint64_t s)
{
    switch (i) {
      case 0:
        return genNatural(256, 256, 1, s, 12.0, 5, 0.62);
      case 1:
        return genNatural(256, 256, 1, s, 22.0, 4, 0.60);
      case 2:
        return genNatural(256, 240, 1, s, 40.0, 3, 0.55, 200);
      case 3:
        return genNatural(128, 128, 1, s, 30.0, 3, 0.55, 180);
      case 4:
        return genStarfield(158, 158, s);
      case 5:
        return genNatural(64, 64, 1, s, 8.0, 4, 0.6, 42);
      case 6:
        return genNatural(256, 256, 1, s, 20.0, 4, 0.6, 34);
      case 7:
        return genLabels(486, 243, 12, s);
      case 8:
        return genFractal(450, 409, 24, s);
      case 9:
        return genSmoothFloat(228, 256, s);
      case 10:
        return genSmoothFloat(228, 256, s);
      case 11:
        return genNatural(480, 512, 3, s, 8.0, 6, 0.65, 256, 1.0, true);
      case 12:
        return genNatural(480, 512, 3, s, 14.0, 5, 0.62, 256, 1.0, true);
      default:
        return genNatural(512, 768, 3, s, 20.0, 5, 0.60, 256, 1.0, true);
    }
}

TEST(Generate, PixelsAreBitStable)
{
    // The generators avoid std::uniform_*_distribution / std::shuffle
    // (libstdc++ and libc++ disagree on those) and derive everything
    // from the mix64 hash; these checksums pin the exact pixel bits
    // the golden snapshots and hit-ratio tables were measured on. A
    // failure here means image generation changed and every trace-
    // derived number in tests/golden/ is suspect.
    ASSERT_EQ(std::size(kStandardPins), standardImages().size());
    for (size_t i = 0; i < std::size(kStandardPins); i++) {
        const NamedImage &ni = standardImages()[i];
        EXPECT_EQ(ni.name, kStandardPins[i].first);
        EXPECT_EQ(imageChecksum(ni.image), kStandardPins[i].second)
            << std::hex << ni.name << " 0x" << imageChecksum(ni.image);
    }
}

TEST(Generate, PixelsAreBitStableAtSeed7)
{
    // The benchmark's held-out seed 7 drives the same 14 calls with
    // generator seed 700000 + i; pinning them covers parameter
    // combinations the standard set never reaches with its own seeds.
    const uint64_t pins[] = {
        0xd156d480f6cc97beULL, 0x3808d5875c4249c6ULL,
        0x3855be71387deaa7ULL, 0x202930245fe08dbdULL,
        0x69c6a5e6d053d0f1ULL, 0xd34e8c410586ec8fULL,
        0xca9228a48320928bULL, 0xd78ddf07f10c2b8bULL,
        0xda265c90f23f2eb5ULL, 0xb7ed5dc9acb5b80bULL,
        0x9ce4669faeb30779ULL, 0x2f84ab4e3ec2b683ULL,
        0x005b6fa81d1b4e39ULL, 0x5660894a83dcf5d2ULL,
    };
    for (size_t i = 0; i < std::size(pins); i++) {
        uint64_t sum = imageChecksum(standardCall(i, 700000 + i));
        EXPECT_EQ(sum, pins[i]) << std::hex << i << " 0x" << sum;
    }
}

TEST(Generate, ImagesIdenticalSerialAndOnPool)
{
    // On a pool worker every parallelFor inside a generator runs
    // inline, in row order: the serial baseline. From this thread the
    // same calls fan their rows out over the shared pool.
    std::promise<std::vector<Image>> serial_p;
    exec::ThreadPool::shared().submit([&] {
        EXPECT_TRUE(exec::ThreadPool::inWorker());
        std::vector<Image> v;
        for (size_t i = 0; i < standardImages().size(); i++)
            v.push_back(standardCall(i, 1001 + i));
        serial_p.set_value(std::move(v));
    });
    std::vector<Image> serial = serial_p.get_future().get();
    ASSERT_EQ(serial.size(), standardImages().size());
    for (size_t i = 0; i < serial.size(); i++) {
        const NamedImage &ni = standardImages()[i];
        Image pooled = standardCall(i, 1001 + i);
        EXPECT_EQ(serial[i].raw(), pooled.raw()) << ni.name;
        EXPECT_EQ(serial[i].raw(), ni.image.raw()) << ni.name;
    }
}

TEST(Generate, ConcurrentFirstUseFinishes)
{
    // A fresh process (the threadsafe death-test style re-executes
    // the binary), so standardImages() is not built yet. One plain
    // thread starts the build, which fans rows out over the pool;
    // then every pool worker calls standardImages() too and blocks on
    // its static-initialization guard. When no worker takes a leg,
    // parallelFor's caller runs one itself and never waits for a leg
    // that has not started, so the build finishes with no worker
    // free. A watchdog turns a deadlock into a failure instead of a
    // hang.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            auto checksums = [] {
                std::vector<uint64_t> v;
                for (const NamedImage &ni : standardImages())
                    v.push_back(imageChecksum(ni.image));
                return v;
            };
            exec::ThreadPool &pool = exec::ThreadPool::shared();
            // The builder must be a thread outside the pool.
            // NOLINTNEXTLINE(memo-CONC-001)
            auto builder = std::async(std::launch::async, checksums);
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            std::vector<std::future<std::vector<uint64_t>>> workers;
            for (unsigned i = 0; i < pool.size(); i++) {
                auto task = std::make_shared<
                    std::packaged_task<std::vector<uint64_t>()>>(
                    checksums);
                workers.push_back(task->get_future());
                pool.submit([task] { (*task)(); });
            }
            if (builder.wait_for(std::chrono::seconds(120)) !=
                std::future_status::ready)
                std::_Exit(2);
            std::vector<uint64_t> want;
            for (const auto &pin : kStandardPins)
                want.push_back(pin.second);
            bool same = builder.get() == want;
            for (auto &f : workers)
                same = same && f.get() == want;
            std::_Exit(same ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Generate, SmoothFloatIsSmooth)
{
    Image f = genSmoothFloat(64, 64, 3);
    EXPECT_EQ(f.type(), PixelType::Float);
    // Neighbouring samples differ slowly relative to the range.
    float range = f.maxValue() - f.minValue();
    ASSERT_GT(range, 0.0f);
    for (int y = 0; y < 63; y++) {
        for (int x = 0; x < 63; x++) {
            EXPECT_LT(std::fabs(f.at(x + 1, y) - f.at(x, y)),
                      0.25f * range);
        }
    }
}

} // anonymous namespace
} // namespace memo
