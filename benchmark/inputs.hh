/**
 * @file
 * The benchmark's seeded input images.
 *
 * Seed 0 is the paper's fixed set: the same 14 generator calls as
 * standardImages(), pixel for pixel. Seed S >= 1 repeats those calls
 * with the same geometry and parameters but generator seed
 * S * 100000 + i (i = the image's index) and renames each image
 * "s<S>.<name>", so the trace cache never confuses two seeds' traces.
 * The images are generated afresh on every call, which is what lets a
 * run time its set-up more than once.
 */

#ifndef MEMO_LEDGER_INPUTS_HH
#define MEMO_LEDGER_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "img/generate.hh"

namespace ledger
{

/** Generate the 14 input images of @p seed. */
std::vector<memo::NamedImage> seededImages(uint64_t seed);

/**
 * Check the generator against its contract: seed 0 equals
 * standardImages() pixel for pixel, and seeds >= 1 produce names that
 * collide with no other seed's. Returns the first violation, or "".
 */
std::string checkInputs();

} // namespace ledger

#endif // MEMO_LEDGER_INPUTS_HH
