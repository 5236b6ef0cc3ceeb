#include "generate.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "arith/fp.hh"
#include "exec/parallel.hh"
#include "prof/prof.hh"

namespace memo
{

namespace
{

// Portability note: everything below derives its randomness from the
// mix64 hash, never from <random> distributions. libstdc++ and libc++
// produce different sequences for std::uniform_*_distribution and
// std::shuffle even with identical engine streams, which would break
// the cross-platform reproducibility the golden snapshots
// (tests/golden/) and the Generate.PixelsAreBitStable checksums pin.

/** splitmix64 — cheap stateless hash for lattice noise. */
uint64_t
mix64(uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Lattice value in [0,1). */
double
lattice(int x, int y, uint64_t seed)
{
    uint64_t h = mix64(seed ^ (static_cast<uint64_t>(
                                   static_cast<uint32_t>(x)) << 32 |
                               static_cast<uint32_t>(y)));
    return static_cast<double>(h >> 11) * 0x1p-53;
}

double
smoothstep(double t)
{
    return t * t * (3.0 - 2.0 * t);
}

/** Rows per work item of the row-parallel passes. */
constexpr int kBlockRows = 8;

/** Number of kBlockRows-row blocks covering @p h rows. */
size_t
rowBlocks(int h)
{
    return static_cast<size_t>((h + kBlockRows - 1) / kBlockRows);
}

/**
 * Run @p fn(y0, y1) over row block [y0, y1) for every block of an
 * @p h-row image, on the shared pool. Blocks write disjoint rows.
 */
template <typename Fn>
void
forRowBlocks(int h, Fn &&fn)
{
    exec::parallelFor(rowBlocks(h), [&](size_t i) {
        int y0 = static_cast<int>(i) * kBlockRows;
        fn(y0, std::min(h, y0 + kBlockRows));
    });
}

/** Like forRowBlocks, collecting fn's results in block order. */
template <typename Fn>
auto
sweepRowBlocks(int h, Fn &&fn)
{
    return exec::sweep(rowBlocks(h), [&](size_t i) {
        int y0 = static_cast<int>(i) * kBlockRows;
        return fn(y0, std::min(h, y0 + kBlockRows));
    });
}

/**
 * One row of one band of fractional Brownian motion over bilinear
 * value noise, before normalization: sum[x] accumulates, in octave
 * order, amp[o] times the noise at (fx[x], fy) * freq[o]. Coordinates
 * are >= 0, so truncation is floor. Consecutive pixels in one lattice
 * cell reuse its four corner values, and a step to the next cell
 * reuses the shared edge.
 */
void
fbmRow(const std::vector<double> &fx, double fy, uint64_t seed,
       const std::vector<double> &amp, const std::vector<double> &freq,
       std::vector<double> &sum)
{
    std::fill(sum.begin(), sum.end(), 0.0);
    for (size_t o = 0; o < amp.size(); o++) {
        uint64_t oseed = seed + static_cast<uint64_t>(o) * 1013;
        double py = fy * freq[o];
        int yi = static_cast<int>(py);
        double ty = smoothstep(py - yi);
        int cx = -2; // no cell yet: xi >= 0 is neither cx nor cx + 1
        double v00 = 0, v10 = 0, v01 = 0, v11 = 0;
        for (size_t x = 0; x < fx.size(); x++) {
            double px = fx[x] * freq[o];
            int xi = static_cast<int>(px);
            if (xi != cx) {
                if (xi == cx + 1) {
                    v00 = v10;
                    v01 = v11;
                } else {
                    v00 = lattice(xi, yi, oseed);
                    v01 = lattice(xi, yi + 1, oseed);
                }
                v10 = lattice(xi + 1, yi, oseed);
                v11 = lattice(xi + 1, yi + 1, oseed);
                cx = xi;
            }
            double tx = smoothstep(px - xi);
            double a = v00 + (v10 - v00) * tx;
            double b = v01 + (v11 - v01) * tx;
            sum[x] += amp[o] * (a + (b - a) * ty);
        }
    }
}

/** Per-band sample range. */
struct BandRange
{
    std::vector<float> lo, hi;

    explicit BandRange(int bands = 0)
        : lo(bands, std::numeric_limits<float>::max()),
          hi(bands, std::numeric_limits<float>::lowest())
    {
    }
};

/**
 * Per-band min and max of @p img, reduced over row blocks. Min and max
 * are exact, so the result does not depend on the block order.
 */
BandRange
bandRange(const Image &img)
{
    int nb = img.bands();
    auto parts = sweepRowBlocks(img.height(), [&](int y0, int y1) {
        BandRange r(nb);
        for (int y = y0; y < y1; y++) {
            for (int x = 0; x < img.width(); x++) {
                for (int b = 0; b < nb; b++) {
                    r.lo[b] = std::min(r.lo[b], img.at(x, y, b));
                    r.hi[b] = std::max(r.hi[b], img.at(x, y, b));
                }
            }
        }
        return r;
    });
    BandRange all(nb);
    for (const BandRange &r : parts) {
        for (int b = 0; b < nb; b++) {
            all.lo[b] = std::min(all.lo[b], r.lo[b]);
            all.hi[b] = std::max(all.hi[b], r.hi[b]);
        }
    }
    return all;
}

/** The 256-bin histogram bin of a [0,1] sample. */
int
equalizeBin(float v)
{
    return std::clamp(static_cast<int>(v * 255.0f), 0, 255);
}

} // anonymous namespace

Image
genNatural(int w, int h, int bands, uint64_t seed, double base_scale,
           int octaves, double persistence, int levels, double gamma,
           bool equalize)
{
    if (!(base_scale > 0.0))
        throw std::invalid_argument("genNatural: base_scale must be > 0");
    if (octaves < 1)
        throw std::invalid_argument("genNatural: octaves must be >= 1");
    // Octave weights with fBm's running products: amplitude falls by
    // persistence and frequency doubles per octave.
    std::vector<double> amp(octaves), freq(octaves);
    double norm = 0.0;
    double a = 1.0, f = 1.0;
    for (int o = 0; o < octaves; o++) {
        amp[o] = a;
        freq[o] = f;
        norm += a;
        a *= persistence;
        f *= 2.0;
    }
    std::vector<double> fx(w);
    for (int x = 0; x < w; x++)
        fx[x] = x / base_scale;

    Image img(w, h, bands, PixelType::Byte);
    forRowBlocks(h, [&](int y0, int y1) {
        std::vector<double> sum(w);
        for (int y = y0; y < y1; y++) {
            for (int b = 0; b < bands; b++) {
                fbmRow(fx, y / base_scale,
                       seed + static_cast<uint64_t>(b) * 7919, amp, freq,
                       sum);
                for (int x = 0; x < w; x++)
                    img.at(x, y, b) = static_cast<float>(sum[x] / norm);
            }
        }
    });

    // Per-band min-max normalization to [0,1], counting the 256-bin
    // histogram of the result when equalizing.
    BandRange r = bandRange(img);
    std::vector<float> range(bands);
    for (int b = 0; b < bands; b++)
        range[b] = r.hi[b] - r.lo[b];
    auto hists = sweepRowBlocks(h, [&](int y0, int y1) {
        std::vector<uint64_t> hist(equalize ? 256 * bands : 0);
        for (int y = y0; y < y1; y++) {
            for (int x = 0; x < w; x++) {
                for (int b = 0; b < bands; b++) {
                    float &v = img.at(x, y, b);
                    if (range[b] > 0)
                        v = (v - r.lo[b]) / range[b];
                    if (equalize)
                        hist[256 * b + equalizeBin(v)]++;
                }
            }
        }
        return hist;
    });

    // Histogram equalization remaps each band through the CDF of its
    // histogram so the grey alphabet is near uniform. Then gamma skew,
    // posterize to the requested alphabet, spread to 0..255.
    std::vector<double> cdf(equalize ? 256 * bands : 0);
    if (equalize) {
        std::vector<uint64_t> hist(256 * bands);
        for (const auto &part : hists)
            for (size_t i = 0; i < hist.size(); i++)
                hist[i] += part[i];
        uint64_t n = static_cast<uint64_t>(w) * h;
        for (int b = 0; b < bands; b++) {
            uint64_t run = 0;
            for (int i = 0; i < 256; i++) {
                run += hist[256 * b + i];
                cdf[256 * b + i] = static_cast<double>(run) / n;
            }
        }
    }
    bool skew = !fpExactEq(gamma, 1.0);
    double step = levels > 1 ? 255.0 / (levels - 1) : 0.0;
    forRowBlocks(h, [&](int y0, int y1) {
        for (int y = y0; y < y1; y++) {
            for (int x = 0; x < w; x++) {
                for (int b = 0; b < bands; b++) {
                    float &v = img.at(x, y, b);
                    if (equalize)
                        v = static_cast<float>(
                            cdf[256 * b + equalizeBin(v)]);
                    double u = static_cast<double>(v);
                    if (skew)
                        u = std::pow(u, gamma);
                    int q = static_cast<int>(std::lround(u * (levels - 1)));
                    v = static_cast<float>(std::lround(q * step));
                }
            }
        }
    });
    img.quantize();
    return img;
}

Image
genLabels(int w, int h, int num_labels, uint64_t seed)
{
    if (num_labels < 1)
        throw std::invalid_argument("genLabels: num_labels must be >= 1");
    // Many small Voronoi fragments, each carrying one of num_labels
    // label values: the label alphabet stays small (full entropy ~
    // log2(num_labels)) while boundaries are frequent enough that small
    // windows regularly straddle two regions, as in a real
    // segmentation/labeling output.
    struct Site
    {
        double x, y;
        int label;
    };
    int num_sites = std::max(num_labels, w * h / 450);
    std::vector<Site> sites;
    sites.reserve(num_sites);
    for (int i = 0; i < num_sites; i++) {
        uint64_t hx = mix64(seed + 3 * i);
        uint64_t hy = mix64(seed + 3 * i + 1);
        int label = static_cast<int>(mix64(seed + 3 * i + 2) %
                                     num_labels);
        sites.push_back({static_cast<double>(hx % 10000) / 10000.0 * w,
                         static_cast<double>(hy % 10000) / 10000.0 * h,
                         label});
    }
    // Nearest site per pixel (the first such site on a tie), found
    // through a grid of square cells holding about two sites each:
    // the search visits rings of cells around the pixel's cell until
    // no unvisited cell can hold a site as near as the best so far.
    // A site k rings out is more than (k - 1) * cell away on one
    // axis; the bound gives up a little to the rounding of the cell
    // indices and of the distances, so a site it skips is strictly
    // farther than the best and could not have won.
    const double cell =
        std::max(1.0, std::sqrt(2.0 * w * h / num_sites));
    const int gw = static_cast<int>(w / cell) + 1;
    const int gh = static_cast<int>(h / cell) + 1;
    auto cellOf = [&](double v, int n) {
        return std::clamp(static_cast<int>(v / cell), 0, n - 1);
    };
    // Sites by cell, ascending index within each: bucket c holds
    // order[start[c] .. start[c + 1]).
    std::vector<int> start(static_cast<size_t>(gw) * gh + 1, 0);
    std::vector<int> cell_of(num_sites);
    for (int i = 0; i < num_sites; i++) {
        cell_of[i] = cellOf(sites[i].y, gh) * gw + cellOf(sites[i].x, gw);
        start[cell_of[i] + 1]++;
    }
    for (size_t c = 1; c < start.size(); c++)
        start[c] += start[c - 1];
    std::vector<int> order(num_sites);
    {
        std::vector<int> fill(start.begin(), start.end() - 1);
        for (int i = 0; i < num_sites; i++)
            order[fill[cell_of[i]]++] = i;
    }
    const int rings = std::max(gw, gh);

    Image img(w, h, 1, PixelType::Integer);
    forRowBlocks(h, [&](int y0, int y1) {
        for (int y = y0; y < y1; y++) {
            const int cy = cellOf(y, gh);
            for (int x = 0; x < w; x++) {
                const int cx = cellOf(x, gw);
                int best = num_sites;
                double best_d = std::numeric_limits<double>::max();
                auto visit = [&](int gx, int gy) {
                    if (gx < 0 || gx >= gw || gy < 0 || gy >= gh)
                        return;
                    const int c = gy * gw + gx;
                    for (int k = start[c]; k < start[c + 1]; k++) {
                        const int i = order[k];
                        double dx = x - sites[i].x;
                        double dy = y - sites[i].y;
                        double d = dx * dx + dy * dy;
                        if (d < best_d ||
                            (fpExactEq(d, best_d) && i < best)) {
                            best_d = d;
                            best = i;
                        }
                    }
                };
                for (int r = 0; r <= rings; r++) {
                    if (r == 0) {
                        visit(cx, cy);
                    } else {
                        for (int gx = cx - r; gx <= cx + r; gx++) {
                            visit(gx, cy - r);
                            visit(gx, cy + r);
                        }
                        for (int gy = cy - r + 1; gy < cy + r; gy++) {
                            visit(cx - r, gy);
                            visit(cx + r, gy);
                        }
                    }
                    const double reach = r * cell - 1e-6;
                    if (reach > 0 && reach * reach * (1 - 1e-12) > best_d)
                        break;
                }
                img.at(x, y) = static_cast<float>(sites[best].label);
            }
        }
    });
    return img;
}

Image
genFractal(int w, int h, int max_iter, uint64_t seed)
{
    if (w < 2)
        throw std::invalid_argument("genFractal: w must be >= 2");
    if (h < 2)
        throw std::invalid_argument("genFractal: h must be >= 2");
    // A viewport dominated by the main cardioid of the Mandelbrot set:
    // most pixels saturate at max_iter (one value), the rest fall in a
    // few thin posterized escape bands.
    double jitter = static_cast<double>(mix64(seed) % 1000) * 1e-6;
    double cx0 = -1.30 + jitter;
    double cx1 = 0.18;
    double cy0 = -0.54;
    double cy1 = 0.54;
    Image img(w, h, 1, PixelType::Byte);
    forRowBlocks(h, [&](int y0, int y1) {
        for (int y = y0; y < y1; y++) {
            for (int x = 0; x < w; x++) {
                double cr = cx0 + (cx1 - cx0) * x / (w - 1);
                double ci = cy0 + (cy1 - cy0) * y / (h - 1);
                double zr = 0.0, zi = 0.0;
                int it = 0;
                while (it < max_iter && zr * zr + zi * zi < 4.0) {
                    double t = zr * zr - zi * zi + cr;
                    zi = 2.0 * zr * zi + ci;
                    zr = t;
                    it++;
                }
                int v = it == max_iter ? 0 : 32 + 8 * (it % 24);
                img.at(x, y) = static_cast<float>(v);
            }
        }
    });
    img.quantize();
    return img;
}

Image
genSmoothFloat(int w, int h, uint64_t seed)
{
    struct Blob
    {
        double x, y, sigma, amp;
    };
    std::vector<Blob> blobs;
    for (int i = 0; i < 9; i++) {
        double bx = static_cast<double>(mix64(seed + 4 * i) % 1000) /
                    1000.0 * w;
        double by = static_cast<double>(mix64(seed + 4 * i + 1) % 1000) /
                    1000.0 * h;
        double s = 8.0 + static_cast<double>(
                             mix64(seed + 4 * i + 2) % 1000) /
                             1000.0 * 0.2 * std::min(w, h);
        double a = 20.0 + static_cast<double>(
                              mix64(seed + 4 * i + 3) % 1000) / 5.0;
        blobs.push_back({bx, by, s, a});
    }
    Image img(w, h, 1, PixelType::Float);
    forRowBlocks(h, [&](int y0, int y1) {
        for (int y = y0; y < y1; y++) {
            for (int x = 0; x < w; x++) {
                double v = 0.0;
                for (const auto &blob : blobs) {
                    double dx = x - blob.x;
                    double dy = y - blob.y;
                    v += blob.amp *
                         std::exp(-(dx * dx + dy * dy) /
                                  (2.0 * blob.sigma * blob.sigma));
                }
                img.at(x, y) = static_cast<float>(v);
            }
        }
    });
    return img;
}

Image
genStarfield(int w, int h, uint64_t seed)
{
    Image img = genNatural(w, h, 1, seed, 3.0, 3, 0.8, 256, 4.5);
    // Scatter bright points over the dark sky.
    int stars = w * h / 160;
    for (int i = 0; i < stars; i++) {
        int x = static_cast<int>(mix64(seed + 3 * i) % w);
        int y = static_cast<int>(mix64(seed + 3 * i + 1) % h);
        img.at(x, y) = static_cast<float>(
            192 + mix64(seed + 3 * i + 2) % 64);
    }
    img.quantize();
    return img;
}

Image
genGradient(int w, int h)
{
    if (w < 2)
        throw std::invalid_argument("genGradient: w must be >= 2");
    Image img(w, h, 1, PixelType::Byte);
    for (int y = 0; y < h; y++)
        for (int x = 0; x < w; x++)
            img.at(x, y) = static_cast<float>(
                std::lround(255.0 * x / (w - 1)));
    return img;
}

const std::vector<NamedImage> &
standardImages()
{
    static const std::vector<NamedImage> images = [] {
        prof::ProfSpan span("img.generate");
        constexpr double nan = std::numeric_limits<double>::quiet_NaN();
        std::vector<NamedImage> v;
        v.push_back({"mandrill",
                     genNatural(256, 256, 1, 1001, 12.0, 5, 0.62),
                     7.34, 6.03, 5.10, .31, .30, .29});
        v.push_back({"nature",
                     genNatural(256, 256, 1, 1002, 22.0, 4, 0.60),
                     7.38, 5.64, 4.72, .31, .34, .35});
        v.push_back({"Muppet1",
                     genNatural(256, 240, 1, 1003, 40.0, 3, 0.55, 200),
                     7.04, 4.78, 4.16, .31, .45, .50});
        v.push_back({"guya",
                     genNatural(128, 128, 1, 1004, 30.0, 3, 0.55, 180),
                     6.99, 4.77, 3.91, .36, .76, .37});
        v.push_back({"star", genStarfield(158, 158, 1005),
                     5.93, 5.22, 4.62, .96, .32, .33});
        v.push_back({"chroms",
                     genNatural(64, 64, 1, 1006, 8.0, 4, 0.6, 42),
                     4.82, 4.04, 3.29, .58, .43, .40});
        v.push_back({"airport1",
                     genNatural(256, 256, 1, 1007, 20.0, 4, 0.6, 34),
                     4.47, 3.15, 2.56, .31, .46, .45});
        v.push_back({"lablabel", genLabels(486, 243, 12, 1008),
                     3.37, 0.93, 0.84, .93, .66, .75});
        v.push_back({"fractal", genFractal(450, 409, 24, 1009),
                     1.42, 0.78, 0.58, .88, .61, .82});
        v.push_back({"head", genSmoothFloat(228, 256, 1010),
                     nan, nan, nan, .39, .29, .33});
        v.push_back({"spine", genSmoothFloat(228, 256, 1011),
                     nan, nan, nan, .39, .27, .32});
        v.push_back({"lenna.rgb",
                     genNatural(480, 512, 3, 1012, 8.0, 6, 0.65, 256, 1.0, true),
                     7.75, 6.84, 6.25, .19, .35, .58});
        v.push_back({"mandril.rgb",
                     genNatural(480, 512, 3, 1013, 14.0, 5, 0.62, 256, 1.0, true),
                     7.75, 6.22, 5.64, .36, .36, .52});
        v.push_back({"lizard.rgb",
                     genNatural(512, 768, 3, 1014, 20.0, 5, 0.60, 256, 1.0, true),
                     7.60, 5.66, 5.17, .32, .40, .60});
        return v;
    }();
    return images;
}

const NamedImage &
imageByName(std::string_view name)
{
    for (const auto &ni : standardImages()) {
        if (ni.name == name)
            return ni;
    }
    throw std::out_of_range("unknown image: " + std::string(name));
}

} // namespace memo
