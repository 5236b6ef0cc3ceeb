#include "image.hh"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hh"

namespace memo
{

std::string_view
pixelTypeName(PixelType t)
{
    switch (t) {
      case PixelType::Byte:
        return "BYTE";
      case PixelType::Integer:
        return "INTEGER";
      case PixelType::Float:
        return "FLOAT";
    }
    return "?";
}

void
Image::quantize()
{
    if (ty == PixelType::Float || data.empty())
        return;
    // Each sample maps on its own, so rows go to the shared pool in
    // work items of at least 16 Ki samples; a smaller image is one
    // item, which parallelFor runs inline.
    bool byte = ty == PixelType::Byte;
    size_t row = static_cast<size_t>(w) * nb;
    exec::parallelFor(
        static_cast<size_t>(h),
        [&](size_t y) {
            float *v = data.data() + y * row;
            for (size_t i = 0; i < row; i++)
                v[i] = byte ? std::clamp(std::round(v[i]), 0.0f, 255.0f)
                            : std::round(v[i]);
        },
        0, std::max<size_t>(1, (size_t{16} << 10) / row));
}

float
Image::minValue() const
{
    return data.empty() ? 0.0f : *std::min_element(data.begin(),
                                                   data.end());
}

float
Image::maxValue() const
{
    return data.empty() ? 0.0f : *std::max_element(data.begin(),
                                                   data.end());
}

} // namespace memo
