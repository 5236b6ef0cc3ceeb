#include "driver.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/baseline.hh"
#include "lint/emit.hh"
#include "lint/lexer.hh"

namespace fs = std::filesystem;

namespace memo::lint
{

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
lintableExtension(const fs::path &p)
{
    return p.extension() == ".cc" || p.extension() == ".hh";
}

/** Repo-relative generic path, or the input when outside the root. */
std::string
relativeTo(const std::string &path, const std::string &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(path, root, ec);
    if (ec || rel.empty() || *rel.begin() == "..")
        return fs::path(path).generic_string();
    return rel.generic_string();
}

std::vector<std::string>
collectFiles(const std::vector<std::string> &paths, std::ostream &err,
             bool &ok)
{
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator
                     it(p, fs::directory_options::skip_permission_denied,
                        ec),
                 end;
                 it != end; ++it) {
                const fs::path &fp = it->path();
                std::string name = fp.filename().string();
                if (it->is_directory() &&
                    (name == ".git" || name.rfind("build", 0) == 0 ||
                     name == "lint_fixtures")) {
                    // Fixture corpora carry deliberate violations;
                    // they are linted by the EXPECT self-test, not
                    // by repo runs.
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() && lintableExtension(fp))
                    files.push_back(fp.generic_string());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            err << "memo-lint: no such file or directory: " << p
                << "\n";
            ok = false;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

/** The `EXPECT: rule...` annotations of a fixture, as (line, rule). */
std::vector<std::pair<int, std::string>>
expectedFindings(const std::string &source)
{
    std::vector<std::pair<int, std::string>> expected;
    LexResult lr = lex(source);
    for (const Comment &c : lr.comments) {
        size_t p = c.text.find("EXPECT:");
        if (p == std::string::npos)
            continue;
        std::istringstream ss(c.text.substr(p + 7));
        std::string rule;
        while (ss >> rule)
            if (rule.rfind("memo-", 0) == 0)
                expected.emplace_back(c.line, rule);
    }
    std::sort(expected.begin(), expected.end());
    return expected;
}

/**
 * Self-test over a fixture directory: the post-suppression findings
 * of every fixture must equal its EXPECT annotations exactly.
 * @return number of mismatching fixtures.
 */
int
selfTest(const std::string &dir, std::ostream &out)
{
    bool collect_ok = true;
    std::vector<std::string> files =
        collectFiles({dir}, out, collect_ok);
    if (!collect_ok || files.empty()) {
        out << "memo-lint: self-test: no fixtures under " << dir
            << "\n";
        return 1;
    }
    int failures = 0;
    for (const std::string &path : files) {
        std::string source;
        if (!readFile(path, source)) {
            out << "memo-lint: self-test: cannot read " << path
                << "\n";
            failures++;
            continue;
        }
        AnalyzerOptions opt;
        std::string as = lintAsOverride(source);
        opt.relPath = as.empty()
                          ? "tests/lint_fixtures/" +
                                fs::path(path).filename().string()
                          : as;
        // A canned registry so tools/-scoped fixtures can exercise
        // the CLI-registration rule hermetically.
        opt.toolsReadme = "## memo-known-tool — a documented tool\n";

        std::vector<std::pair<int, std::string>> expected =
            expectedFindings(source);
        std::vector<std::pair<int, std::string>> got;
        for (const Finding &f : analyzeFile(source, opt))
            got.emplace_back(f.line, f.rule->id);
        std::sort(got.begin(), got.end());

        if (got != expected) {
            failures++;
            out << "memo-lint: self-test FAILED: " << path << "\n";
            for (const auto &[line, rule] : expected)
                if (!std::count(got.begin(), got.end(),
                                std::make_pair(line, rule)))
                    out << "  missing expected " << rule << " @ line "
                        << line << "\n";
            for (const auto &[line, rule] : got)
                if (!std::count(expected.begin(), expected.end(),
                                std::make_pair(line, rule)))
                    out << "  unexpected " << rule << " @ line "
                        << line << "\n";
        }
    }
    out << "memo-lint: self-test: " << files.size() << " fixtures, "
        << failures << " failures\n";
    return failures;
}

} // anonymous namespace

std::vector<Finding>
lintOneFile(const std::string &path, const std::string &root,
            const std::string &toolsReadme)
{
    std::string source;
    if (!readFile(path, source))
        return {};
    AnalyzerOptions opt;
    std::string as = lintAsOverride(source);
    opt.relPath = as.empty() ? relativeTo(path, root) : as;
    opt.toolsReadme = toolsReadme;

    fs::path companion = fs::path(path);
    companion.replace_extension(".hh");
    if (companion != fs::path(path)) {
        std::string header;
        if (readFile(companion.string(), header))
            opt.companionHeader = std::move(header);
    }
    return analyzeFile(source, opt);
}

int
runLint(const DriverConfig &cfg, std::ostream &out, std::ostream &err)
{
    if (cfg.listRules) {
        for (const RuleInfo &r : ruleCatalog())
            out << r.id << " (" << severityName(r.severity) << ", "
                << r.family << "): " << r.summary << "\n";
        return 0;
    }
    if (cfg.format != "text" && cfg.format != "json" &&
        cfg.format != "sarif") {
        err << "memo-lint: unknown format '" << cfg.format << "'\n";
        return 2;
    }

    int self_failures = 0;
    if (!cfg.selfTestDir.empty())
        self_failures = selfTest(cfg.selfTestDir, err);

    bool collect_ok = true;
    std::vector<std::string> files =
        collectFiles(cfg.paths, err, collect_ok);
    if (!collect_ok)
        return 2;

    std::string tools_readme;
    readFile((fs::path(cfg.root) / "tools" / "README.md").string(),
             tools_readme);

    std::vector<Finding> findings;
    for (const std::string &path : files) {
        std::vector<Finding> fs_one =
            lintOneFile(path, cfg.root, tools_readme);
        findings.insert(findings.end(), fs_one.begin(), fs_one.end());
    }
    std::sort(findings.begin(), findings.end());

    if (!cfg.updateBaselinePath.empty()) {
        // The ratchet-shrinking path: unlike --write-baseline it
        // enforces the baseline policy, so it can never be used to
        // absorb an error-severity regression.
        std::vector<std::string> hard;
        for (const Finding &f : findings)
            if (f.rule->severity == Severity::Error) {
                std::ostringstream os;
                os << f.rule->id << " @ " << f.file << ":" << f.line;
                hard.push_back(os.str());
            }
        if (!hard.empty()) {
            err << "memo-lint: refusing to update baseline: "
                   "error-severity findings must be fixed, not "
                   "baselined:\n";
            for (const std::string &e : hard)
                err << "  " << e << "\n";
            return 1;
        }
        Baseline b = Baseline::fromFindings(findings);
        std::ofstream bf(cfg.updateBaselinePath, std::ios::binary);
        if (!bf) {
            err << "memo-lint: cannot write "
                << cfg.updateBaselinePath << "\n";
            return 2;
        }
        bf << b.serialize();
        out << "memo-lint: updated baseline with " << b.size()
            << " tolerated findings\n";
        return self_failures ? 1 : 0;
    }

    if (!cfg.writeBaselinePath.empty()) {
        Baseline b = Baseline::fromFindings(findings);
        std::ofstream bf(cfg.writeBaselinePath, std::ios::binary);
        if (!bf) {
            err << "memo-lint: cannot write "
                << cfg.writeBaselinePath << "\n";
            return 2;
        }
        bf << b.serialize();
        out << "memo-lint: wrote baseline with " << b.size()
            << " tolerated findings\n";
        return self_failures ? 1 : 0;
    }

    std::vector<Finding> fresh = findings;
    if (!cfg.baselinePath.empty()) {
        std::string text;
        if (!readFile(cfg.baselinePath, text)) {
            err << "memo-lint: cannot read baseline "
                << cfg.baselinePath << "\n";
            return 2;
        }
        Baseline b;
        std::string perr;
        if (!b.parse(text, perr)) {
            err << "memo-lint: bad baseline " << cfg.baselinePath
                << ": " << perr << "\n";
            return 2;
        }
        std::vector<std::string> bad = b.errorSeverityEntries();
        if (!bad.empty()) {
            err << "memo-lint: baseline policy violation: "
                   "error-severity (DET/CONC) findings must be "
                   "fixed, not baselined:\n";
            for (const std::string &e : bad)
                err << "  " << e << "\n";
            return 1;
        }
        std::vector<std::string> stale = b.staleEntries(findings);
        if (!stale.empty()) {
            err << "memo-lint: stale baseline: entries tolerate "
                   "findings the code no longer produces; shrink the "
                   "ratchet with --update-baseline "
                << cfg.baselinePath << ":\n";
            for (const std::string &e : stale)
                err << "  " << e << "\n";
            return 1;
        }
        fresh = b.filter(findings);
    }

    if (cfg.format == "text")
        emitText(out, fresh);
    else if (cfg.format == "json")
        emitJson(out, fresh);
    else
        emitSarif(out, fresh);

    if (cfg.format == "text")
        out << "memo-lint: " << files.size() << " files, "
            << findings.size() << " findings, " << fresh.size()
            << " new\n";
    return (fresh.empty() && !self_failures) ? 0 : 1;
}

} // namespace memo::lint
