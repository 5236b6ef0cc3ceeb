/**
 * @file
 * Khoros-style kernels, part A: differentiation, cost surfaces, slope,
 * square root, Gaussian generation and detilt.
 */

#include "mm_kernels.hh"

#include <array>
#include <cmath>

#include "arith/fp.hh"
#include "workloads/mm_util.hh"

namespace memo
{

/**
 * vdiff: differentiation using two NxN weighted (Sobel) operators —
 * floating point weight multiplies on byte pixels (the zero and unit
 * weights are trivial operations), then squaring and a root for the
 * gradient magnitude. Address arithmetic multiplies per pixel.
 */
void
runVdiff(Recorder &rec, const Image &img, Image *out)
{
    static constexpr std::array<double, 9> gx = {-1, 0, 1, -2, 0, 2,
                                                 -1, 0, 1};
    static constexpr std::array<double, 9> gy = {-1, -2, -1, 0, 0, 0,
                                                 1, 2, 1};
    Image plane(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            // Row-offset multiply (loop invariant within the row) and
            // a per-pixel coordinate product.
            rec.imul(y, img.width());
            if (x & 1)
                rec.imul(x, y);
            double sx = 0.0, sy = 0.0;
            int k = 0;
            for (int dy = -1; dy <= 1; dy++) {
                for (int dx = -1; dx <= 1; dx++, k++) {
                    double p = pix(rec, img, x + dx, y + dy);
                    sx = rec.fadd(sx, rec.mul(gx[k], p));
                    sy = rec.fadd(sy, rec.mul(gy[k], p));
                    rec.alu(2);
                }
            }
            double mag = rec.sqrt(
                rec.fadd(rec.mul(sx, sx), rec.mul(sy, sy)));
            rec.store(plane.at(x, y), static_cast<float>(mag));
            loopStep(rec);
        }
    }
    if (out)
        *out = plane;
}

/**
 * vcost: surface arc length from a given pixel. Eight-neighbour arc
 * increments sqrt(run^2 + rise^2) normalized by the cell diagonal.
 */
void
runVcost(Recorder &rec, const Image &img, Image *out)
{
    constexpr double cell_diag = 1.4142135623730951;
    Image plane(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double v0 = pix(rec, img, x, y);
            double acc = 0.0;
            for (int dy = -1; dy <= 1; dy++) {
                for (int dx = -1; dx <= 1; dx++) {
                    if (dx == 0 && dy == 0)
                        continue;
                    // Integer run length (reused small-operand mults).
                    int64_t run2 = rec.imul(dx, dx) + rec.imul(dy, dy);
                    double rise = rec.fsub(pix(rec, img, x + dx, y + dy),
                                           v0);
                    double norm = rec.div(rise, cell_diag);
                    double seg = rec.sqrt(
                        rec.fadd(static_cast<double>(run2),
                                 rec.mul(norm, norm)));
                    acc = rec.fadd(acc, seg);
                    rec.branch();
                }
            }
            rec.store(plane.at(x, y), static_cast<float>(acc));
            loopStep(rec);
        }
    }
    if (out)
        *out = plane;
}

/**
 * vslope: slope and aspect images from elevation data via central
 * differences; divisions by the doubled cell size and the gradient
 * ratio for the aspect.
 */
void
runVslope(Recorder &rec, const Image &img, Image *out)
{
    constexpr double cell = 30.0; // metres per elevation post
    Image slope(img.width(), img.height(), 1, PixelType::Float);
    Image aspect(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            // Address arithmetic: mostly distinct coordinate products
            // with an occasional row-offset recomputation.
            rec.imul(x, y);
            if ((x & 1) == 0)
                rec.imul(y, img.width());
            double zx = rec.div(rec.fsub(pix(rec, img, x + 1, y),
                                         pix(rec, img, x - 1, y)),
                                2.0 * cell);
            double zy = rec.div(rec.fsub(pix(rec, img, x, y + 1),
                                         pix(rec, img, x, y - 1)),
                                2.0 * cell);
            double g = rec.fadd(rec.mul(zx, zx), rec.mul(zy, zy));
            double s = rec.mul(rec.sqrt(g), 57.29577951308232);
            // Exact divide-by-zero guard: excludes exactly the two
            // zero encodings, bit-stable at any -O level.
            double a = !fpIsZero(zx) ? rec.div(zy, zx) : 0.0;
            rec.store(slope.at(x, y), static_cast<float>(s));
            rec.store(aspect.at(x, y), static_cast<float>(a));
            loopStep(rec);
        }
    }
    if (out)
        *out = slope;
}

/**
 * vsqrt: square root of each pixel, normalized to the byte range
 * (out = 255 * sqrt(p / 255)).
 */
void
runVsqrt(Recorder &rec, const Image &img, Image *out)
{
    Image plane(img.width(), img.height(), 1, PixelType::Byte);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double p = pix(rec, img, x, y);
            double n = rec.div(p, 255.0);
            double r = rec.mul(rec.sqrt(n), 255.0);
            rec.store(plane.at(x, y), static_cast<float>(r));
            loopStep(rec);
        }
    }
    plane.quantize();
    if (out)
        *out = plane;
}

/**
 * vgauss: generates Gaussian distributions — evaluates the normal pdf
 * of each pixel value against the image mean/deviation. The z-score
 * division dominates the divider traffic.
 */
void
runVgauss(Recorder &rec, const Image &img, Image *out)
{
    // First pass: mean and deviation (accumulated with fp adds).
    double sum = 0.0, sum2 = 0.0;
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double p = pix(rec, img, x, y);
            sum = rec.fadd(sum, p);
            sum2 = rec.fadd(sum2, rec.mul(p, p));
            loopStep(rec);
        }
    }
    double n = static_cast<double>(img.width()) * img.height();
    // The byte-image pipeline carries integer statistics.
    double mean = std::round(rec.div(sum, n));
    double var = rec.fsub(rec.div(sum2, n), rec.mul(mean, mean));
    double sigma = std::max(
        1.0, std::round(rec.sqrt(var > 1e-12 ? var : 1e-12)));
    double norm = rec.div(1.0, rec.mul(sigma, 2.5066282746310002));

    Image plane(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double p = pix(rec, img, x, y);
            double z = rec.div(rec.fsub(p, mean), sigma);
            double e = rec.exp(rec.mul(-0.5, rec.mul(z, z)));
            rec.store(plane.at(x, y),
                      static_cast<float>(rec.mul(norm, e)));
            loopStep(rec);
        }
    }
    if (out)
        *out = plane;
}

/**
 * vdetilt: subtract the least-squares best-fit plane. The fit itself is
 * the tool's tiny setup phase (unrecorded); the recorded per-pixel pass
 * is the plane evaluation and subtraction.
 */
void
runVdetilt(Recorder &rec, const Image &img, Image *out)
{
    // Unrecorded closed-form LSQ plane fit over the pixel lattice.
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxv = 0, syv = 0, sv = 0;
    double n = static_cast<double>(img.width()) * img.height();
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double v = img.at(x, y);
            sx += x;
            sy += y;
            sxx += static_cast<double>(x) * x;
            syy += static_cast<double>(y) * y;
            sxv += x * v;
            syv += y * v;
            sv += v;
        }
    }
    double mx = sx / n, my = sy / n, mv = sv / n;
    double a = (sxv - n * mx * mv) / (sxx - n * mx * mx + 1e-12);
    double b = (syv - n * my * mv) / (syy - n * my * my + 1e-12);
    double c = mv - a * mx - b * my;

    Image residual_img(img.width(), img.height(), 1,
                       PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        double by = rec.mul(b, static_cast<double>(y));
        for (int x = 0; x < img.width(); x++) {
            double p = pix(rec, img, x, y);
            // The slope term is evaluated per 16-pixel segment offset
            // (a small repeating operand alphabet) plus a segment base.
            double plane = rec.fadd(rec.fadd(
                rec.mul(a, static_cast<double>(x & 15)), by), c);
            double resid = rec.fsub(p, plane);
            // Residual gain: continuously varying operand stream.
            rec.store(residual_img.at(x, y),
                      static_cast<float>(rec.mul(resid, 1.0 + 1e-4 *
                                                            x)));
            loopStep(rec);
        }
    }
    if (out)
        *out = residual_img;
}

} // namespace memo
