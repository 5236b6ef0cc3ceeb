/**
 * @file
 * The memo-lint rule catalog.
 *
 * Every rule has a stable ID (used by `// NOLINT(memo-XXX-NNN)`
 * suppressions and SARIF output), a family, a
 * severity and a fix-it hint. The families encode this repository's
 * core contract — bit-identical results at any --jobs level:
 *
 *  - DET:  sources of run-to-run or platform-to-platform
 *          nondeterminism (unordered iteration, wall clocks, pointer
 *          keys);
 *  - FP:   floating-point patterns that silently break bit-exactness
 *          (order-sensitive accumulation);
 *  - CONC: concurrency hazards outside the sanctioned executor
 *          (raw threads, mutable shared state, a mutex's sibling
 *          field without a capability annotation);
 *  - API:  bypasses of repo-internal observability contracts.
 *
 * Lock discipline, dropped I/O results and exact float compares are
 * not lint rules: the compiler checks them (Clang's -Wthread-safety
 * over core/annotations.hh, the [[nodiscard]] IoStatus of
 * trace/file_io.hh under -Werror=unused-result, and
 * -Werror=float-equal on every target). Clang checks only annotated
 * fields, which is why memo-CONC-004 stays.
 */

#ifndef MEMO_LINT_RULES_HH
#define MEMO_LINT_RULES_HH

#include <string_view>
#include <vector>

namespace memo::lint
{

/** Finding severity. DET and CONC findings gate CI as errors. */
enum class Severity
{
    Error,
    Warning,
};

/** Static description of one rule. */
struct RuleInfo
{
    const char *id;      //!< e.g. "memo-DET-001"
    const char *family;  //!< "DET", "FP", "CONC", "API"
    Severity severity;
    const char *summary; //!< one-line description
    const char *hint;    //!< fix-it guidance
};

/** All rules, in catalog order. */
const std::vector<RuleInfo> &ruleCatalog();

/** Rule by ID, or nullptr. */
const RuleInfo *findRule(std::string_view id);

/** "error" / "warning". */
const char *severityName(Severity s);

} // namespace memo::lint

#endif // MEMO_LINT_RULES_HH
