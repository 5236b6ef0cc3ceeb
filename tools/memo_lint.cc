/**
 * @file
 * memo-lint — the repo's determinism & concurrency static-analysis
 * pass (see docs/LINTING.md for the rule catalog and policy).
 *
 * Typical invocations:
 *
 *     memo-lint src tools                      # lint, human output
 *     memo-lint --format sarif src > lint.sarif
 *     memo-lint --self-test tests/lint_fixtures src tools tests
 *     memo-lint --list-rules
 *
 * Exit status: 0 clean (no findings and, when requested, a passing
 * fixture self-test), 1 any finding or a self-test failure, 2
 * usage/configuration error.
 */

#include <iostream>
#include <string>
#include <vector>

#include "lint/driver.hh"

int
main(int argc, char **argv)
{
    return memo::lint::lintMain(
        std::vector<std::string>(argv + 1, argv + argc), std::cout,
        std::cerr);
}
