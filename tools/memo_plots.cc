/**
 * @file
 * memo-plots: emit gnuplot data and scripts for the paper's figures.
 *
 * Usage:  memo-plots [output-dir]      (default: ./plots)
 *
 * Writes fig2.dat/fig3.dat/fig4.dat plus matching .gp scripts; then
 * `gnuplot fig3.gp` renders the figure. The numbers come from the
 * check::measure* entry points behind EXPERIMENTS.md, so the plots
 * and the report agree by construction. A failed write exits
 * nonzero and names the file.
 */

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "check/golden.hh"
#include "check/measure.hh"
#include "trace/file_io.hh"

using namespace memo;

namespace
{

/** Write one output file; throws naming the path on failure. */
void
emit(const std::filesystem::path &path, const std::string &bytes)
{
    IoStatus st = writeWholeFile(path.string(), bytes);
    if (!st.ok())
        throw std::runtime_error(st.error);
}

/** A Figure 3/4 band plot: one x column, then div and mult bands. */
void
emitBands(const std::filesystem::path &dir, const std::string &fig,
          const std::string &x_name, const std::string &x_label,
          const std::vector<unsigned> &xs, const check::SweepBands &b)
{
    std::ostringstream dat;
    dat << "# " << x_name
        << " div_avg div_min div_max mul_avg mul_min mul_max\n";
    for (size_t s = 0; s < xs.size(); s++) {
        dat << xs[s];
        for (const check::BandRow *row : {&b.fpDiv[s], &b.fpMul[s]})
            dat << " " << row->avg << " " << row->lo << " " << row->hi;
        dat << "\n";
    }
    emit(dir / (fig + ".dat"), dat.str());

    emit(dir / (fig + ".gp"),
         "set terminal png size 800,500\n"
         "set output '" + fig + ".png'\n"
         "set logscale x 2\n"
         "set xlabel '" + x_label + "'\n"
         "set ylabel 'hit ratio'\n"
         "set yrange [0:1]\n"
         "set key bottom right\n"
         "plot '" + fig + ".dat' using 1:2:3:4 with yerrorlines "
         "title 'fp division', \\\n"
         "     '" + fig + ".dat' using 1:5:6:7 with yerrorlines "
         "title 'fp multiplication'\n");
}

void
emitFig2(const std::filesystem::path &dir)
{
    check::EntropyResult ent = check::measureEntropy();
    std::ostringstream dat;
    dat << "# image entropy_full entropy_8x8 mul_hit div_hit\n";
    for (const check::EntropyPoint &p : ent.points)
        dat << p.image << " " << p.entropyFull << " " << p.entropyWin
            << " " << p.fpMulHit << " " << p.fpDivHit << "\n";
    emit(dir / "fig2.dat", dat.str());

    std::ostringstream gp;
    gp << "set terminal png size 800,500\n"
          "set output 'fig2.png'\n"
          "set xlabel '8x8 window entropy (bits)'\n"
          "set ylabel 'fp division hit ratio'\n"
          "set yrange [0:1]\n"
       << "f(x) = " << ent.divWin.params[0] << " + ("
       << ent.divWin.params[1] << ")*x\n"
          "plot 'fig2.dat' using 3:5 with points pt 7 "
          "title 'images', f(x) title 'ML best fit'\n";
    emit(dir / "fig2.gp", gp.str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::filesystem::path dir = argc > 1 ? argv[1] : "plots";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "memo-plots: cannot create %s\n",
                     dir.string().c_str());
        return 1;
    }
    try {
        std::printf("emitting Figure 2 data...\n");
        emitFig2(dir);
        std::printf("emitting Figure 3 data...\n");
        emitBands(dir, "fig3", "entries", "MEMO-TABLE entries (4-way)",
                  check::fig3Sizes(),
                  check::measureSweepBands(check::fig3Configs()));
        std::printf("emitting Figure 4 data...\n");
        emitBands(dir, "fig4", "ways", "associativity (32 entries)",
                  check::fig4Ways(),
                  check::measureSweepBands(check::fig4Configs()));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "memo-plots: %s\n", e.what());
        return 1;
    }
    std::printf("done: %s/fig{2,3,4}.{dat,gp} — render with "
                "'gnuplot figN.gp'\n",
                dir.string().c_str());
    return 0;
}
