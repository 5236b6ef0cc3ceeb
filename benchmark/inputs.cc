#include "inputs.hh"

#include <cstring>
#include <functional>
#include <set>
#include <string>

namespace ledger
{

namespace
{

/** One generator call of standardImages(), with its seed left open. */
struct ImageSpec
{
    const char *name;
    std::function<memo::Image(uint64_t seed)> make;
};

/**
 * The 14 calls of standardImages() in order; seed 0 reproduces them
 * with the original generator seeds (1001..1014).
 */
const std::vector<ImageSpec> &
specs()
{
    using namespace memo;
    static const std::vector<ImageSpec> v = {
        {"mandrill",
         [](uint64_t s) { return genNatural(256, 256, 1, s, 12.0, 5, 0.62); }},
        {"nature",
         [](uint64_t s) { return genNatural(256, 256, 1, s, 22.0, 4, 0.60); }},
        {"Muppet1",
         [](uint64_t s) {
             return genNatural(256, 240, 1, s, 40.0, 3, 0.55, 200);
         }},
        {"guya",
         [](uint64_t s) {
             return genNatural(128, 128, 1, s, 30.0, 3, 0.55, 180);
         }},
        {"star", [](uint64_t s) { return genStarfield(158, 158, s); }},
        {"chroms",
         [](uint64_t s) { return genNatural(64, 64, 1, s, 8.0, 4, 0.6, 42); }},
        {"airport1",
         [](uint64_t s) {
             return genNatural(256, 256, 1, s, 20.0, 4, 0.6, 34);
         }},
        {"lablabel", [](uint64_t s) { return genLabels(486, 243, 12, s); }},
        {"fractal", [](uint64_t s) { return genFractal(450, 409, 24, s); }},
        {"head", [](uint64_t s) { return genSmoothFloat(228, 256, s); }},
        {"spine", [](uint64_t s) { return genSmoothFloat(228, 256, s); }},
        {"lenna.rgb",
         [](uint64_t s) {
             return genNatural(480, 512, 3, s, 8.0, 6, 0.65, 256, 1.0, true);
         }},
        {"mandril.rgb",
         [](uint64_t s) {
             return genNatural(480, 512, 3, s, 14.0, 5, 0.62, 256, 1.0,
                               true);
         }},
        {"lizard.rgb",
         [](uint64_t s) {
             return genNatural(512, 768, 3, s, 20.0, 5, 0.60, 256, 1.0,
                               true);
         }},
    };
    return v;
}

} // anonymous namespace

std::vector<memo::NamedImage>
seededImages(uint64_t seed)
{
    std::vector<memo::NamedImage> out;
    for (size_t i = 0; i < specs().size(); i++) {
        const ImageSpec &s = specs()[i];
        uint64_t gen_seed = seed == 0 ? 1001 + i : seed * 100000 + i;
        std::string name = seed == 0 ? s.name
                                     : "s" + std::to_string(seed) + "." +
                                           s.name;
        // The paper's reference columns are unused by the workloads.
        out.push_back({std::move(name), s.make(gen_seed), 0, 0, 0, 0, 0, 0});
    }
    return out;
}

std::string
checkInputs()
{
    const auto &ref = memo::standardImages();
    auto mine = seededImages(0);
    if (mine.size() != ref.size())
        return "seed 0 yields " + std::to_string(mine.size()) +
               " images, standardImages() " + std::to_string(ref.size());
    for (size_t i = 0; i < ref.size(); i++) {
        const memo::Image &a = mine[i].image, &b = ref[i].image;
        if (mine[i].name != ref[i].name || a.width() != b.width() ||
            a.height() != b.height() || a.bands() != b.bands() ||
            a.type() != b.type() || a.samples() != b.samples() ||
            std::memcmp(a.raw().data(), b.raw().data(),
                        a.samples() * sizeof(float)) != 0)
            return "seed 0 image " + ref[i].name +
                   " differs from standardImages()";
    }
    std::set<std::string> names;
    for (uint64_t seed : {0, 1, 7, 12}) {
        for (const auto &ni : seededImages(seed))
            if (!names.insert(ni.name).second)
                return "image name " + ni.name + " repeats across seeds";
    }
    return "";
}

} // namespace ledger
