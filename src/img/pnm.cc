#include "pnm.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace memo
{

namespace
{

/** Skip whitespace and '#' comments between header tokens. */
void
skipSpace(std::istream &in)
{
    while (true) {
        int c = in.peek();
        if (c == '#') {
            std::string line;
            std::getline(in, line);
        } else if (std::isspace(c)) {
            in.get();
        } else {
            return;
        }
    }
}

int
readHeaderInt(std::istream &in)
{
    skipSpace(in);
    int v;
    if (!(in >> v))
        throw std::runtime_error("pnm: malformed header");
    return v;
}

} // anonymous namespace

Image
readPnm(std::istream &in)
{
    char p, kind;
    if (!(in >> p >> kind) || p != 'P')
        throw std::runtime_error("pnm: not a PNM stream");
    bool ascii = kind == '2' || kind == '3';
    bool color = kind == '3' || kind == '6';
    if (kind != '2' && kind != '3' && kind != '5' && kind != '6')
        throw std::runtime_error("pnm: unsupported format");

    int w = readHeaderInt(in);
    int h = readHeaderInt(in);
    int maxval = readHeaderInt(in);
    if (w <= 0 || h <= 0 || maxval <= 0 || maxval > 255)
        throw std::runtime_error("pnm: unsupported geometry or maxval");

    Image img(w, h, color ? 3 : 1, PixelType::Byte);
    if (ascii) {
        for (int y = 0; y < h; y++) {
            for (int x = 0; x < w; x++) {
                for (int b = 0; b < img.bands(); b++) {
                    int v;
                    if (!(in >> v))
                        throw std::runtime_error("pnm: truncated data");
                    img.at(x, y, b) = static_cast<float>(v);
                }
            }
        }
    } else {
        in.get(); // single whitespace after maxval
        std::vector<unsigned char> row(static_cast<size_t>(w) *
                                       img.bands());
        for (int y = 0; y < h; y++) {
            in.read(reinterpret_cast<char *>(row.data()),
                    static_cast<std::streamsize>(row.size()));
            if (!in)
                throw std::runtime_error("pnm: truncated data");
            for (int x = 0; x < w; x++) {
                for (int b = 0; b < img.bands(); b++)
                    img.at(x, y, b) = row[x * img.bands() + b];
            }
        }
    }
    return img;
}

Image
readPnm(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("pnm: cannot open " + path);
    return readPnm(in);
}

void
writePnm(const Image &img, std::ostream &out)
{
    if (img.type() != PixelType::Byte)
        throw std::invalid_argument("pnm: only BYTE images");
    if (img.bands() != 1 && img.bands() != 3)
        throw std::invalid_argument("pnm: need 1 or 3 bands");

    out << (img.bands() == 1 ? "P5" : "P6") << "\n"
        << img.width() << " " << img.height() << "\n255\n";
    std::vector<unsigned char> row(static_cast<size_t>(img.width()) *
                                   img.bands());
    for (int y = 0; y < img.height(); y++) {
        for (int x = 0; x < img.width(); x++) {
            for (int b = 0; b < img.bands(); b++) {
                float v = img.at(x, y, b);
                row[x * img.bands() + b] = static_cast<unsigned char>(
                    v < 0 ? 0 : (v > 255 ? 255 : v));
            }
        }
        out.write(reinterpret_cast<const char *>(row.data()),
                  static_cast<std::streamsize>(row.size()));
    }
}

} // namespace memo
