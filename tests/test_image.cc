/**
 * @file
 * Tests for the image container, entropy analysis and PNM I/O.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "img/entropy.hh"
#include "img/image.hh"
#include "img/pnm.hh"

namespace memo
{
namespace
{

TEST(Image, BasicAccess)
{
    Image img(4, 3, 1, PixelType::Byte);
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.samples(), 12u);
    img.at(2, 1) = 55.0f;
    EXPECT_EQ(img.at(2, 1), 55.0f);
}

TEST(Image, MultiBandLayout)
{
    Image img(2, 2, 3, PixelType::Byte);
    img.at(1, 1, 2) = 9.0f;
    img.at(1, 1, 0) = 3.0f;
    EXPECT_EQ(img.at(1, 1, 2), 9.0f);
    EXPECT_EQ(img.at(1, 1, 0), 3.0f);
    EXPECT_EQ(img.at(1, 1, 1), 0.0f);
}

TEST(Image, ClampedAccess)
{
    Image img(3, 3);
    img.at(0, 0) = 7.0f;
    img.at(2, 2) = 9.0f;
    EXPECT_EQ(img.atClamped(-5, -5), 7.0f);
    EXPECT_EQ(img.atClamped(10, 10), 9.0f);
}

TEST(Image, QuantizeByte)
{
    Image img(2, 1, 1, PixelType::Byte);
    img.at(0, 0) = 300.7f;
    img.at(1, 0) = -4.2f;
    img.quantize();
    EXPECT_EQ(img.at(0, 0), 255.0f);
    EXPECT_EQ(img.at(1, 0), 0.0f);
}

TEST(Image, QuantizeIntegerRounds)
{
    Image img(2, 1, 1, PixelType::Integer);
    img.at(0, 0) = 1234.6f;
    img.at(1, 0) = -7.4f;
    img.quantize();
    EXPECT_EQ(img.at(0, 0), 1235.0f);
    EXPECT_EQ(img.at(1, 0), -7.0f);
}

TEST(Image, QuantizeSpansWorkItems)
{
    // 96 Ki samples: several row items, run on the pool.
    Image img(512, 64, 3, PixelType::Byte);
    for (size_t i = 0; i < img.samples(); i++)
        img.raw()[i] = static_cast<float>(i % 600) * 0.5f - 20.25f;
    img.quantize();
    for (size_t i = 0; i < img.samples(); i++) {
        float want = std::clamp(
            std::round(static_cast<float>(i % 600) * 0.5f - 20.25f),
            0.0f, 255.0f);
        ASSERT_EQ(img.raw()[i], want) << i;
    }
}

TEST(Image, QuantizeEmptyIsNoOp)
{
    Image img;
    img.quantize();
    EXPECT_EQ(img.samples(), 0u);
}

TEST(Image, MinMax)
{
    Image img(2, 2);
    img.at(0, 0) = 5;
    img.at(1, 0) = 1;
    img.at(0, 1) = 9;
    img.at(1, 1) = 3;
    EXPECT_EQ(img.minValue(), 1.0f);
    EXPECT_EQ(img.maxValue(), 9.0f);
}

TEST(Entropy, ConstantImageIsZero)
{
    Image img(16, 16);
    for (auto &v : img.raw())
        v = 128.0f;
    EXPECT_DOUBLE_EQ(imageEntropy(img), 0.0);
    EXPECT_DOUBLE_EQ(windowEntropy(img, 8), 0.0);
}

TEST(Entropy, UniformAlphabetIsLog2)
{
    // The paper's example: 256 equally likely grey levels -> 8 bits.
    Image img(16, 16);
    int k = 0;
    for (auto &v : img.raw())
        v = static_cast<float>(k++ % 256);
    EXPECT_NEAR(imageEntropy(img), 8.0, 1e-9);

    Image img4(4, 4);
    k = 0;
    for (auto &v : img4.raw())
        v = static_cast<float>(k++ % 16);
    EXPECT_NEAR(imageEntropy(img4), 4.0, 1e-9);
}

TEST(Entropy, WindowEntropyBelowFullForSortedImage)
{
    // A gradient has maximal global diversity but tiny local alphabets.
    Image img(64, 64);
    for (int y = 0; y < 64; y++)
        for (int x = 0; x < 64; x++)
            img.at(x, y) = static_cast<float>((x * 4) % 256);
    EXPECT_GT(imageEntropy(img), windowEntropy(img, 8));
}

TEST(Entropy, BitExactForPowerOfTwoAlphabet)
{
    // Four equally likely symbols: p = 1/4 and log2(1/4) = -2 are
    // exact in binary floating point, so the entropy must be exactly
    // 2.0 — no tolerance. The histogram used to be an unordered_map,
    // which made the summation order (and the low bits of the result)
    // depend on the standard library; it now folds in sorted key
    // order (memo-lint DET-001/FP-002 regression).
    Image img(2, 2);
    img.at(0, 0) = 0;
    img.at(1, 0) = 64;
    img.at(0, 1) = 128;
    img.at(1, 1) = 192;
    EXPECT_EQ(imageEntropy(img), 2.0);
    EXPECT_EQ(windowEntropy(img, 2), 2.0);
}

TEST(Entropy, FloatImagesHaveNoEntropy)
{
    Image img(8, 8, 1, PixelType::Float);
    EXPECT_TRUE(std::isnan(imageEntropy(img)));
    EXPECT_TRUE(std::isnan(windowEntropy(img, 8)));
}

TEST(Entropy, DistributionEntropy)
{
    EXPECT_DOUBLE_EQ(distributionEntropy({1.0}), 0.0);
    EXPECT_DOUBLE_EQ(distributionEntropy({0.5, 0.5}), 1.0);
    EXPECT_NEAR(distributionEntropy({0.25, 0.25, 0.25, 0.25}), 2.0,
                1e-12);
    // Zero-probability bins contribute nothing.
    EXPECT_DOUBLE_EQ(distributionEntropy({0.5, 0.5, 0.0}), 1.0);
}

TEST(Pnm, PgmRoundTrip)
{
    Image img(5, 4);
    int k = 0;
    for (auto &v : img.raw())
        v = static_cast<float>((k++ * 13) % 256);

    std::stringstream ss;
    writePnm(img, ss);
    Image back = readPnm(ss);

    ASSERT_EQ(back.width(), 5);
    ASSERT_EQ(back.height(), 4);
    ASSERT_EQ(back.bands(), 1);
    for (int y = 0; y < 4; y++)
        for (int x = 0; x < 5; x++)
            EXPECT_EQ(back.at(x, y), img.at(x, y));
}

TEST(Pnm, PpmRoundTrip)
{
    Image img(3, 2, 3);
    int k = 0;
    for (auto &v : img.raw())
        v = static_cast<float>((k++ * 37) % 256);

    std::stringstream ss;
    writePnm(img, ss);
    Image back = readPnm(ss);
    ASSERT_EQ(back.bands(), 3);
    EXPECT_EQ(back.at(2, 1, 2), img.at(2, 1, 2));
}

TEST(Pnm, AsciiPgm)
{
    std::stringstream ss("P2\n# comment\n2 2\n255\n0 64\n128 255\n");
    Image img = readPnm(ss);
    EXPECT_EQ(img.at(0, 0), 0.0f);
    EXPECT_EQ(img.at(1, 0), 64.0f);
    EXPECT_EQ(img.at(0, 1), 128.0f);
    EXPECT_EQ(img.at(1, 1), 255.0f);
}

TEST(Pnm, RejectsMalformed)
{
    std::stringstream bad1("Q5 2 2 255 ....");
    EXPECT_THROW(readPnm(bad1), std::runtime_error);
    std::stringstream bad2("P5\n2 2\n255\nX"); // truncated
    EXPECT_THROW(readPnm(bad2), std::runtime_error);
}

TEST(Pnm, RejectsUnwritableImages)
{
    Image flt(2, 2, 1, PixelType::Float);
    std::stringstream ss;
    EXPECT_THROW(writePnm(flt, ss), std::invalid_argument);
    Image two_band(2, 2, 2, PixelType::Byte);
    EXPECT_THROW(writePnm(two_band, ss), std::invalid_argument);
}

} // anonymous namespace
} // namespace memo
