/**
 * @file
 * The memo-lint driver: file discovery, output formatting and the
 * fixture self-test — everything the CLI does, factored into the
 * library so tests drive it in-process.
 *
 * The self-test mode is how the linter proves it bites: every
 * fixture under tests/lint_fixtures/ encodes its expected findings
 * as `// EXPECT: memo-XXX-NNN` annotations on the offending lines
 * (clang -verify style). A `_nolint` fixture carries the offending
 * code plus a NOLINT suppression and zero EXPECT lines — deleting
 * its NOLINT makes the self-test (and the `lint` ctest) fail.
 */

#ifndef MEMO_LINT_DRIVER_HH
#define MEMO_LINT_DRIVER_HH

#include <ostream>
#include <string>
#include <vector>

#include "lint/analyzer.hh"

namespace memo::lint
{

struct DriverConfig
{
    /** Files or directories to lint (dirs walk *.cc / *.hh). */
    std::vector<std::string> paths;
    /** Repo root; paths are reported relative to it. */
    std::string root = ".";
    /** "text" or "sarif". */
    std::string format = "text";
    /** Fixture directory for the EXPECT self-test ("" = skip). */
    std::string selfTestDir;
    /** List the rule catalog instead of linting. */
    bool listRules = false;
};

/**
 * Run the linter.
 * @return 0 clean, 1 any finding or a failed self-test, 2 bad
 *         config.
 */
int runLint(const DriverConfig &cfg, std::ostream &out,
            std::ostream &err);

/**
 * The memo-lint command line: parse @p args (argv without the program
 * name) and run. Exit status as runLint; an unknown option or a
 * missing value exits 2 naming the option.
 */
int lintMain(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err);

/**
 * Analyze one file from disk the way the driver would: resolve the
 * repo-relative path (honoring a LINT-AS override), load the
 * companion header and tools/README.md. Exposed for tests.
 */
std::vector<Finding> lintOneFile(const std::string &path,
                                 const std::string &root,
                                 const std::string &toolsReadme);

} // namespace memo::lint

#endif // MEMO_LINT_DRIVER_HH
