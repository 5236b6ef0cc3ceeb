/**
 * @file
 * Golden regression driver.
 *
 *   memo-golden --check DIR    # diff current values against the
 *                              # DIR/<name>.json snapshots
 *   memo-golden --regen DIR    # rewrite the snapshots
 *   memo-golden --list         # document names
 *
 * --check exits 1 on the first mismatching document, printing a line
 * diff of the canonical JSON. The snapshots live in tests/golden/ and
 * the `golden_diff` ctest runs --check against them; a deliberate
 * change to any reproduced paper value is acknowledged by committing
 * the --regen output.
 */

#include <cstring>
#include <fstream>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/golden.hh"
#include "trace/file_io.hh"

namespace
{

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

/** Print a minimal line diff of expected vs actual. */
void
printDiff(const std::string &name, const std::string &want,
          const std::string &got)
{
    auto w = lines(want);
    auto g = lines(got);
    size_t n = std::max(w.size(), g.size());
    unsigned shown = 0;
    for (size_t i = 0; i < n && shown < 20; i++) {
        const std::string *wl = i < w.size() ? &w[i] : nullptr;
        const std::string *gl = i < g.size() ? &g[i] : nullptr;
        if (wl && gl && *wl == *gl)
            continue;
        if (wl)
            std::cout << "  -" << name << ".json:" << (i + 1) << ": "
                      << *wl << "\n";
        if (gl)
            std::cout << "  +" << name << ".json:" << (i + 1) << ": "
                      << *gl << "\n";
        shown++;
    }
    if (shown == 20)
        std::cout << "  ... (more differences suppressed)\n";
}

int
run(int argc, char **argv)
{
    std::string mode, dir;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--list")) {
            mode = "list";
        } else if (!std::strcmp(argv[i], "--check") ||
                   !std::strcmp(argv[i], "--regen")) {
            mode = argv[i] + 2;
            if (i + 1 >= argc) {
                std::cerr << "memo-golden: " << argv[i]
                          << " needs a directory\n";
                return 2;
            }
            dir = argv[++i];
        } else {
            std::cerr << "usage: memo-golden --check DIR | --regen DIR "
                         "| --list\n";
            return std::strcmp(argv[i], "--help") &&
                           std::strcmp(argv[i], "-h")
                       ? 2
                       : 0;
        }
    }
    if (mode.empty()) {
        std::cerr << "usage: memo-golden --check DIR | --regen DIR | "
                     "--list\n";
        return 2;
    }

    if (mode == "list") {
        for (const auto &doc : memo::check::goldenDocs())
            std::cout << doc.name << "\n";
        return 0;
    }

    bool ok = true;
    for (const auto &doc : memo::check::goldenDocs()) {
        std::string path = dir + "/" + doc.name + ".json";
        std::string current = doc.produce();

        if (mode == "regen") {
            memo::IoStatus st = memo::writeWholeFile(path, current);
            if (!st.ok()) {
                std::cerr << "memo-golden: " << st.error << "\n";
                return 2;
            }
            std::cout << "wrote " << path << "\n";
            continue;
        }

        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::cout << "MISSING " << path
                      << " (run memo-golden --regen)\n";
            ok = false;
            continue;
        }
        std::ostringstream snap;
        snap << in.rdbuf();
        if (snap.str() == current) {
            std::cout << "ok " << doc.name << "\n";
        } else {
            std::cout << "DIFF " << doc.name
                      << ": reproduced paper values changed\n";
            printDiff(doc.name, snap.str(), current);
            ok = false;
        }
    }
    if (!ok)
        std::cout << "golden mismatch: if the change is intended, "
                     "regenerate with\n  memo-golden --regen "
                  << dir << "\n";
    return ok ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // An outside input the library refuses (a malformed MEMO_JOBS or
    // MEMO_TRACE_CACHE_MB) is an error naming it, not an abort.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "memo-golden: " << e.what() << "\n";
        return 1;
    }
}
