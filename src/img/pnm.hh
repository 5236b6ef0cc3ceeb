/**
 * @file
 * PGM/PPM image I/O.
 *
 * Lets users run the workloads on real images (the paper used mandrill,
 * lenna, satellite and medical images) in addition to the synthetic
 * generators. Binary P5 (grey) and P6 (RGB) with maxval 255 are
 * supported, plus their ASCII P2/P3 forms on input.
 */

#ifndef MEMO_IMG_PNM_HH
#define MEMO_IMG_PNM_HH

#include <iosfwd>
#include <string>

#include "img/image.hh"

namespace memo
{

/** Read a PGM/PPM stream into a BYTE image. Throws on malformed input. */
Image readPnm(std::istream &in);

/** Read a PGM/PPM file. Throws std::runtime_error on failure. */
Image readPnm(const std::string &path);

/**
 * Write a BYTE image as binary PGM (1 band) or PPM (3 bands).
 * Other band counts or types throw std::invalid_argument.
 */
void writePnm(const Image &img, std::ostream &out);

} // namespace memo

#endif // MEMO_IMG_PNM_HH
