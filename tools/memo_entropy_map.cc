/**
 * @file
 * memo-entropy-map: visualize the paper's windowed-entropy analysis.
 *
 * Usage:  memo-entropy-map IMAGE [window] [out.pgm]
 *   IMAGE   bundled image name or a .pgm/.ppm file
 *   window  tile size in pixels, 1-65535 (default 8, the paper's
 *           finest granularity); any other value is an error
 *
 * Prints the full/16x16/8x8 entropies (the Table 8 columns) and
 * writes a per-window entropy heat map as a PGM image: bright tiles
 * are high-entropy regions where a MEMO-TABLE will miss, dark tiles
 * are the low-entropy regions it feeds on.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/cli_args.hh"
#include "img/entropy.hh"
#include "img/generate.hh"
#include "img/pnm.hh"
#include "trace/file_io.hh"

using namespace memo;

namespace
{

/** Entropy of one tile. */
double
tileEntropy(const Image &img, int x0, int y0, int window)
{
    std::map<int, uint64_t> hist;
    uint64_t n = 0;
    int x1 = std::min(x0 + window, img.width());
    int y1 = std::min(y0 + window, img.height());
    for (int y = y0; y < y1; y++) {
        for (int x = x0; x < x1; x++) {
            for (int b = 0; b < img.bands(); b++) {
                hist[static_cast<int>(img.at(x, y, b))]++;
                n++;
            }
        }
    }
    double e = 0.0;
    for (const auto &[v, c] : hist) {
        double p = static_cast<double>(c) / n;
        e -= p * std::log2(p);
    }
    return e;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: memo-entropy-map IMAGE [window] "
                     "[out.pgm]\n");
        return 1;
    }
    std::string name = argv[1];
    std::string out_path = argc > 3 ? argv[3] : "entropy_map.pgm";

    try {
        // A 16-bit window keeps the tile arithmetic below in int range.
        int window =
            argc > 2 ? cli::parseCount<uint16_t>("window", argv[2]) : 8;
        Image img = (name.ends_with(".pgm") || name.ends_with(".ppm"))
                        ? readPnm(name)
                        : imageByName(name).image;
        if (img.type() == PixelType::Float) {
            std::fprintf(stderr, "FLOAT images have no histogram "
                                 "entropy (Table 8 prints '-')\n");
            return 1;
        }

        std::printf("%s: %dx%d %s, %d band(s)\n", name.c_str(),
                    img.width(), img.height(),
                    std::string(pixelTypeName(img.type())).c_str(),
                    img.bands());
        std::printf("entropy: full %.2f bits, 16x16 %.2f, 8x8 %.2f\n",
                    imageEntropy(img), windowEntropy(img, 16),
                    windowEntropy(img, 8));

        int tw = (img.width() + window - 1) / window;
        int th = (img.height() + window - 1) / window;
        Image map(tw, th, 1, PixelType::Byte);
        double max_bits = std::log2(
            static_cast<double>(window) * window * img.bands());
        for (int ty = 0; ty < th; ty++) {
            for (int tx = 0; tx < tw; tx++) {
                double e = tileEntropy(img, tx * window, ty * window,
                                       window);
                map.at(tx, ty) = static_cast<float>(
                    std::lround(255.0 * e / max_bits));
            }
        }
        map.quantize();
        std::ostringstream pgm;
        writePnm(map, pgm);
        IoStatus st = writeWholeFile(out_path, pgm.str());
        if (!st.ok())
            throw std::runtime_error(st.error);
        std::printf("%dx%d window-entropy map -> %s (bright = high "
                    "entropy = memo-hostile)\n",
                    tw, th, out_path.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memo-entropy-map: %s\n", e.what());
        return 1;
    }
}
