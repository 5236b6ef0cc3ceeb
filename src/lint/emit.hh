/**
 * @file
 * Finding emitters: human text and SARIF 2.1.0.
 *
 * The SARIF output is the minimal schema-valid subset GitHub code
 * scanning and IDE SARIF viewers consume: one run, the rule catalog
 * as tool.driver.rules, one result per finding with a physical
 * location.
 */

#ifndef MEMO_LINT_EMIT_HH
#define MEMO_LINT_EMIT_HH

#include <ostream>
#include <string>
#include <vector>

#include "lint/analyzer.hh"

namespace memo::lint
{

/** JSON string-body escaping (quotes, backslashes, control chars). */
std::string jsonEscape(const std::string &s);

/** `file:line:col: severity: message [rule]` with a hint line. */
void emitText(std::ostream &os, const std::vector<Finding> &findings);

/** SARIF 2.1.0 log with the full rule catalog. */
void emitSarif(std::ostream &os, const std::vector<Finding> &findings);

} // namespace memo::lint

#endif // MEMO_LINT_EMIT_HH
