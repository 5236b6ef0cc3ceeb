#include "driver.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

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

void
usage(std::ostream &os)
{
    os << "usage: memo-lint [options] <file-or-dir>...\n"
          "\n"
          "options:\n"
          "  --root DIR             repo root for relative paths "
          "(default .)\n"
          "  --format FMT           text | sarif (default text)\n"
          "  --self-test DIR        verify EXPECT annotations of "
          "the lint fixtures\n"
          "  --list-rules           print the rule catalog\n"
          "  --help                 this text\n";
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
    if (cfg.format != "text" && cfg.format != "sarif") {
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

    if (cfg.format == "text") {
        emitText(out, findings);
        out << "memo-lint: " << files.size() << " files, "
            << findings.size() << " findings\n";
    } else {
        emitSarif(out, findings);
    }
    return (findings.empty() && !self_failures) ? 0 : 1;
}

int
lintMain(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    DriverConfig cfg;
    for (size_t i = 0; i < args.size(); i++) {
        const std::string &arg = args[i];
        bool valued =
            arg == "--root" || arg == "--format" || arg == "--self-test";
        if (valued && i + 1 >= args.size()) {
            err << "memo-lint: " << arg << " needs a value\n";
            return 2;
        }
        if (arg == "--help" || arg == "-h") {
            usage(out);
            return 0;
        } else if (arg == "--root") {
            cfg.root = args[++i];
        } else if (arg == "--format") {
            cfg.format = args[++i];
        } else if (arg == "--self-test") {
            cfg.selfTestDir = args[++i];
        } else if (arg == "--list-rules") {
            cfg.listRules = true;
        } else if (arg.rfind("--", 0) == 0) {
            err << "memo-lint: unknown option " << arg << "\n";
            usage(err);
            return 2;
        } else {
            cfg.paths.push_back(arg);
        }
    }
    if (cfg.paths.empty() && !cfg.listRules &&
        cfg.selfTestDir.empty()) {
        usage(err);
        return 2;
    }
    return runLint(cfg, out, err);
}

} // namespace memo::lint
