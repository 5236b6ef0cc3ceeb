/**
 * @file
 * Self-rendering experiment report driver.
 *
 *   memo-report --write DIR    # measure everything and rewrite
 *                              # DIR/EXPERIMENTS.md and
 *                              # DIR/docs/REPORT.html
 *   memo-report --check DIR    # re-render and diff against the
 *                              # committed artifacts (exit 1 on drift)
 *   memo-report --markdown     # render EXPERIMENTS.md to stdout
 *   memo-report --html         # render REPORT.html to stdout
 *
 * This is the one renderer of the paper's tables and figures. It runs
 * the same check::measure* entry points the golden snapshots use, so
 * its numbers agree with them by construction. Rendering is
 * deterministic (no timestamps or locale formatting), which is what
 * lets the `report_drift` ctest treat EXPERIMENTS.md like a golden
 * file: any code change that moves a reproduced paper value fails
 * --check until the artifacts are regenerated with --write and
 * committed. Artifact I/O goes through trace/file_io.hh, so a failed
 * write exits nonzero naming the file.
 */

#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/report.hh"
#include "exec/trace_cache.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "trace/file_io.hh"

namespace
{

struct Artifact
{
    const char *path; //!< repo-relative
    std::string (*render)(const memo::obs::Report &);
};

const Artifact artifacts[] = {
    {"EXPERIMENTS.md", memo::obs::renderMarkdown},
    {"docs/REPORT.html", memo::obs::renderHtml},
};

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

/** Print a minimal line diff of committed vs re-rendered. */
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
            std::cout << "  -" << name << ":" << (i + 1) << ": " << *wl
                      << "\n";
        if (gl)
            std::cout << "  +" << name << ":" << (i + 1) << ": " << *gl
                      << "\n";
        shown++;
    }
    if (shown == 20)
        std::cout << "  ... (more differences suppressed)\n";
}

int
usage(int code)
{
    (code ? std::cerr : std::cout)
        << "usage: memo-report --write DIR | --check DIR | --markdown "
           "| --html\n";
    return code;
}

int
run(int argc, char **argv)
{
    std::string mode, dir;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--markdown") ||
            !std::strcmp(argv[i], "--html")) {
            mode = argv[i] + 2;
        } else if (!std::strcmp(argv[i], "--write") ||
                   !std::strcmp(argv[i], "--check")) {
            mode = argv[i] + 2;
            if (i + 1 >= argc) {
                std::cerr << "memo-report: " << argv[i]
                          << " needs the repository root\n";
                return 2;
            }
            dir = argv[++i];
        } else {
            return usage(std::strcmp(argv[i], "--help") &&
                                 std::strcmp(argv[i], "-h")
                             ? 2
                             : 0);
        }
    }
    if (mode.empty())
        return usage(2);

    memo::obs::Report report = memo::check::buildExperimentsReport();

    if (mode == "markdown") {
        std::cout << memo::obs::renderMarkdown(report);
        return 0;
    }
    if (mode == "html") {
        std::cout << memo::obs::renderHtml(report);
        return 0;
    }

    bool ok = true;
    for (const Artifact &a : artifacts) {
        std::string path = dir + "/" + a.path;
        std::string current = a.render(report);

        if (mode == "write") {
            memo::IoStatus st = memo::writeWholeFile(path, current);
            if (!st.ok()) {
                std::cerr << "memo-report: " << st.error << "\n";
                return 2;
            }
            std::cout << "wrote " << path << "\n";
            continue;
        }

        std::string committed;
        memo::IoStatus st = memo::readWholeFile(path, committed);
        if (!st.ok()) {
            std::cout << "MISSING: " << st.error
                      << " (run memo-report --write)\n";
            ok = false;
            continue;
        }
        if (committed == current) {
            std::cout << "ok " << a.path << "\n";
        } else {
            std::cout << "DRIFT " << a.path
                      << ": committed report disagrees with measured "
                         "values\n";
            printDiff(a.path, committed, current);
            ok = false;
        }
    }
    // Trace-cache effectiveness of the measurement run, via the same
    // gauges the profiler publishes (exec.traceCache.*). Write/check
    // stdout is operator-facing, so this never touches the rendered
    // artifacts (whose bytes --check just compared).
    auto &cache = memo::exec::TraceCache::instance();
    memo::obs::StatsRegistry cache_stats;
    cache.publishStats(cache_stats);
    auto snap = cache_stats.snapshot();
    std::cout << "trace cache: "
              << snap.gauges["exec.traceCache.hits"] << " hits, "
              << snap.gauges["exec.traceCache.misses"] << " misses, "
              << snap.gauges["exec.traceCache.evictions"]
              << " evictions, "
              << snap.gauges["exec.traceCache.residentBytes"] /
                     (1024 * 1024)
              << " MiB resident\n";

    if (!ok)
        std::cout << "report drift: if the change is intended, "
                     "regenerate with\n  memo-report --write "
                  << (dir.empty() ? "." : dir) << "\n";
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
        std::cerr << "memo-report: " << e.what() << "\n";
        return 1;
    }
}
