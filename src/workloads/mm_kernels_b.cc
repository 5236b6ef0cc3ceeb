/**
 * @file
 * Khoros-style kernels, part B: local enhancement, edge detection,
 * geometric warp and the complex-image conversions.
 */

#include "mm_kernels.hh"

#include <cmath>

#include "arith/fp.hh"
#include "workloads/mm_util.hh"

namespace memo
{

/**
 * venhance: local transformation by mean and variance (Wallis filter):
 * out = (p - local_mean) * target_dev / local_dev + target_mean.
 */
void
runVenhance(Recorder &rec, const Image &img, Image *out)
{
    constexpr int half = 2; // 5x5 neighbourhood
    constexpr double target_mean = 128.0;
    constexpr double target_dev = 48.0;
    Image plane(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double sum = 0.0, sum2 = 0.0;
            for (int dy = -half; dy <= half; dy++) {
                for (int dx = -half; dx <= half; dx++) {
                    double p = pix(rec, img, x + dx, y + dy);
                    sum = rec.fadd(sum, p);
                    sum2 = rec.fadd(sum2, rec.mul(p, p));
                    rec.branch();
                }
            }
            constexpr double n = (2 * half + 1) * (2 * half + 1);
            double mean = rec.div(sum, n);
            double var = rec.fsub(rec.div(sum2, n),
                                  rec.mul(mean, mean));
            // The tool's fixed-point pipeline carries the local
            // deviation at half-grey-level resolution.
            double dev = rec.sqrt(var > 1.0 ? var : 1.0);
            double dev_q = std::round(dev * 2.0) / 2.0;
            double gain = rec.div(target_dev, dev_q);
            double p = pix(rec, img, x, y);
            double v = rec.fadd(rec.mul(rec.fsub(p, mean), gain),
                                target_mean);
            rec.store(plane.at(x, y), static_cast<float>(v));
            loopStep(rec);
        }
    }
    if (out)
        *out = plane;
}

/**
 * vgef: gradient edge filter — smoothed directional derivatives with
 * fractional fp weights, combined into an edge strength.
 */
void
runVgef(Recorder &rec, const Image &img, Image *out)
{
    static constexpr double wx[9] = {-0.25, 0.0, 0.25, -0.5, 0.0, 0.5,
                                     -0.25, 0.0, 0.25};
    static constexpr double wy[9] = {-0.25, -0.5, -0.25, 0.0, 0.0, 0.0,
                                     0.25, 0.5, 0.25};
    Image plane(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            rec.imul(x, y);
            if ((x % 3) == 0)
                rec.imul(y, img.width()); // row offset recomputation
            double gx = 0.0, gy = 0.0;
            int k = 0;
            for (int dy = -1; dy <= 1; dy++) {
                for (int dx = -1; dx <= 1; dx++, k++) {
                    double p = pix(rec, img, x + dx, y + dy);
                    gx = rec.fadd(gx, rec.mul(wx[k], p));
                    gy = rec.fadd(gy, rec.mul(wy[k], p));
                    rec.alu();
                }
            }
            // Edge strength via |gx| + |gy| (integer-style compare ops).
            rec.alu(2);
            double e = rec.fadd(std::fabs(gx), std::fabs(gy));
            rec.store(plane.at(x, y), static_cast<float>(e));
            loopStep(rec);
        }
    }
    if (out)
        *out = plane;
}

/**
 * vwarp: polynomial/projective geometric transformation. Source
 * coordinates come from a rational polynomial; samples are fetched
 * with bilinear interpolation.
 */
void
runVwarp(Recorder &rec, const Image &img, Image *out)
{
    // Mild projective warp with a touch of shear.
    constexpr double a0 = 2.0, a1 = 0.98, a2 = 0.03;
    constexpr double b0 = -1.0, b1 = -0.02, b2 = 1.01;
    constexpr double g = 1.5e-4, h = -1.1e-4;
    // Span-based perspective correction: the projective division is
    // evaluated exactly at 8-pixel span boundaries and interpolated
    // affinely inside the span (the classic scanline technique).
    constexpr int span = 8;
    Image plane(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        double fy = static_cast<double>(y);
        double u0 = 0.0, u1 = 0.0;
        for (int x = 0; x < img.width(); x++) {
            // xy product feeds the bilinear term of the polynomial.
            int64_t xy = rec.imul(x, y);
            double fx = static_cast<double>(x);
            if (x % span == 0) {
                auto exact_u = [&](double px) {
                    double den = rec.fadd(
                        rec.fadd(rec.mul(g, px), rec.mul(h, fy)), 1.0);
                    return rec.div(
                        rec.fadd(rec.fadd(a0, rec.mul(a1, px)),
                                 rec.fadd(rec.mul(a2, fy),
                                          rec.mul(1e-6,
                                                  static_cast<double>(
                                                      xy)))),
                        den);
                };
                u0 = exact_u(fx);
                u1 = exact_u(fx + span);
            }
            double t = static_cast<double>(x % span) / span;
            double u = rec.fadd(u0, rec.mul(rec.fsub(u1, u0), t));
            // The vertical polynomial carries no projective term.
            double v = rec.fadd(rec.fadd(b0, rec.mul(b1, fx)),
                                rec.mul(b2, fy));
            int iu = static_cast<int>(std::floor(u));
            int iv = static_cast<int>(std::floor(v));
            double du = rec.fsub(u, static_cast<double>(iu));
            double dv = rec.fsub(v, static_cast<double>(iv));
            rec.alu(2);
            // Bilinear interpolation of the four source neighbours.
            double p00 = pix(rec, img, iu, iv);
            double p10 = pix(rec, img, iu + 1, iv);
            double p01 = pix(rec, img, iu, iv + 1);
            double p11 = pix(rec, img, iu + 1, iv + 1);
            double top = rec.fadd(rec.mul(p00, rec.fsub(1.0, du)),
                                  rec.mul(p10, du));
            double bot = rec.fadd(rec.mul(p01, rec.fsub(1.0, du)),
                                  rec.mul(p11, du));
            double s = rec.fadd(rec.mul(top, rec.fsub(1.0, dv)),
                                rec.mul(bot, dv));
            // Output scaling to the unit range: the interpolated
            // sample is quantized back to the byte lattice first.
            double sq = std::round(s);
            rec.div(sq, 255.0);
            rec.store(plane.at(x, y), static_cast<float>(s));
            loopStep(rec);
        }
    }
    if (out)
        *out = plane;
}

/**
 * vrect2pol: rectangular-to-polar conversion of complex data. The
 * complex field is synthesized from the pixel and its horizontal
 * gradient (the Khoros pipeline feeds FFT output here).
 */
void
runVrect2pol(Recorder &rec, const Image &img, Image *out)
{
    Image mag(img.width(), img.height(), 1, PixelType::Float);
    Image phase(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            // Complex samples come from a quantizing A/D front end:
            // both components live on a coarse lattice.
            double re = std::round(pix(rec, img, x, y) * 0.125) * 8.0;
            double im = std::round(rec.fsub(pix(rec, img, x + 1, y),
                                            re) * 0.125) * 8.0;
            double r = rec.sqrt(rec.fadd(rec.mul(re, re),
                                         rec.mul(im, im)));
            // Phase from the gradient ratio (atan evaluated by the
            // libm substrate; the division is the memoizable part).
            // Exact divide-by-zero guard, bit-stable at any -O level.
            double t = !fpIsZero(re) ? rec.div(im, re) : 0.0;
            double ph = std::atan(t);
            rec.store(mag.at(x, y), static_cast<float>(r));
            rec.store(phase.at(x, y), static_cast<float>(ph));
            loopStep(rec);
        }
    }
    if (out)
        *out = mag;
}

/**
 * vmpp: magnitude/power/phase extraction from COMPLEX images; like
 * vrect2pol with the additional power plane and dB conversion.
 */
void
runVmpp(Recorder &rec, const Image &img, Image *out)
{
    Image power(img.width(), img.height(), 1, PixelType::Float);
    Image phase(img.width(), img.height(), 1, PixelType::Float);
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            double re = std::round(pix(rec, img, x, y) * 0.125) * 8.0;
            double im = std::round(rec.fsub(pix(rec, img, x, y + 1),
                                            re) * 0.125) * 8.0;
            double pw = rec.fadd(rec.mul(re, re), rec.mul(im, im));
            double db = rec.mul(10.0, rec.log(rec.fadd(pw, 1.0)));
            // Exact divide-by-zero guard, bit-stable at any -O level.
            double t = !fpIsZero(re) ? rec.div(im, re) : 0.0;
            double ph = std::atan(t);
            double norm = rec.div(pw, 65025.0); // 255^2 full scale
            rec.store(power.at(x, y),
                      static_cast<float>(rec.fadd(db, norm)));
            rec.store(phase.at(x, y), static_cast<float>(ph));
            loopStep(rec);
        }
    }
    if (out)
        *out = power;
}

} // namespace memo
