/**
 * @file
 * memo-lint unit tests: lexer, suppressions, every rule family, the
 * driver and its command line, emitters, the self-run that holds the
 * whole repository to zero findings, and a seeded fuzz of the lexer
 * and analyzer over mutated sources.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "check/fuzz.hh"
#include "lint/analyzer.hh"
#include "lint/driver.hh"
#include "lint/emit.hh"
#include "lint/lexer.hh"
#include "lint/rules.hh"

using namespace memo::lint;

namespace
{

/** Rule ids of the findings for @p source at @p relPath, sorted. */
std::vector<std::string>
ruleIdsOf(const std::string &source,
          const std::string &relPath = "src/sim/example.cc")
{
    AnalyzerOptions opt;
    opt.relPath = relPath;
    std::vector<std::string> ids;
    for (const Finding &f : analyzeFile(source, opt))
        ids.push_back(f.rule->id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // anonymous namespace

// ---------------------------------------------------------------- lexer

TEST(LintLexer, TokenKindsAndPositions)
{
    LexResult lr = lex("int x = 42;\ndouble y = 1.5e-3;");
    ASSERT_GE(lr.tokens.size(), 10u);
    EXPECT_EQ(lr.tokens[0].text, "int");
    EXPECT_EQ(lr.tokens[0].kind, TokKind::Ident);
    EXPECT_EQ(lr.tokens[0].line, 1);
    EXPECT_EQ(lr.tokens[3].text, "42");
    EXPECT_EQ(lr.tokens[3].kind, TokKind::Number);
    // The exponent sign stays glued to the number.
    bool found = false;
    for (const Token &t : lr.tokens)
        if (t.text == "1.5e-3") {
            found = true;
            EXPECT_EQ(t.kind, TokKind::Number);
            EXPECT_EQ(t.line, 2);
        }
    EXPECT_TRUE(found);
}

TEST(LintLexer, CommentsAreCapturedNotTokenized)
{
    LexResult lr = lex("// line one\nint a; /* block\nspan */ int b;");
    ASSERT_EQ(lr.comments.size(), 2u);
    EXPECT_EQ(lr.comments[0].text, " line one");
    EXPECT_EQ(lr.comments[0].line, 1);
    EXPECT_EQ(lr.comments[1].line, 2);
    EXPECT_EQ(lr.comments[1].endLine, 3);
    for (const Token &t : lr.tokens)
        EXPECT_NE(t.text, "span");
}

TEST(LintLexer, PreprocessorLinesAreOpaque)
{
    // Nothing inside an #include or a multi-line #define may feed a
    // rule: the whole directive is one Preproc token.
    LexResult lr =
        lex("#include <unordered_map>\n#define F(x) \\\n  rand()\n");
    ASSERT_EQ(lr.tokens.size(), 2u);
    EXPECT_EQ(lr.tokens[0].kind, TokKind::Preproc);
    EXPECT_EQ(lr.tokens[0].text, "include");
    EXPECT_EQ(lr.tokens[1].text, "define");
    EXPECT_TRUE(ruleIdsOf("#define SEED rand()\n").empty());
}

TEST(LintLexer, StringsAndRawStringsAreSingleTokens)
{
    LexResult lr = lex("auto s = R\"(rand())\"; auto t = \"x==y\";");
    int strings = 0;
    for (const Token &t : lr.tokens)
        if (t.kind == TokKind::String)
            strings++;
    EXPECT_EQ(strings, 2);
    // A call inside a literal must not fire DET-002.
    EXPECT_TRUE(ruleIdsOf("const char *s = \"x = rand();\";").empty());
}

TEST(LintLexer, TwoCharOperatorsStayWhole)
{
    LexResult lr = lex("a += b; c == d; e <= f;");
    std::vector<std::string> ops;
    for (const Token &t : lr.tokens)
        if (t.kind == TokKind::Punct && t.text.size() == 2)
            ops.push_back(t.text);
    EXPECT_EQ(ops, (std::vector<std::string>{"+=", "==", "<="}));
}

// --------------------------------------------------------- suppressions

TEST(LintSuppress, TrailingNolintSilencesTheLine)
{
    std::string hit = "void f() {\n"
                      "    std::unordered_map<int, int> m;\n"
                      "    for (auto &kv : m) { (void)kv; }\n"
                      "}\n";
    EXPECT_EQ(ruleIdsOf(hit),
              (std::vector<std::string>{"memo-DET-001"}));
    std::string supp = "void f() {\n"
                       "    std::unordered_map<int, int> m;\n"
                       "    for (auto &kv : m) { (void)kv; } "
                       "// NOLINT(memo-DET-001)\n"
                       "}\n";
    EXPECT_TRUE(ruleIdsOf(supp).empty());
}

TEST(LintSuppress, NolintNextline)
{
    std::string supp = "void f() {\n"
                       "    std::unordered_map<int, int> m;\n"
                       "    // NOLINTNEXTLINE(memo-DET-001)\n"
                       "    for (auto &kv : m) { (void)kv; }\n"
                       "}\n";
    EXPECT_TRUE(ruleIdsOf(supp).empty());
}

TEST(LintSuppress, RuleListIsSelective)
{
    // A NOLINT for an unrelated rule must not suppress the finding.
    std::string wrong = "void f() {\n"
                        "    std::unordered_map<int, int> m;\n"
                        "    for (auto &kv : m) { (void)kv; } "
                        "// NOLINT(memo-FP-002)\n"
                        "}\n";
    EXPECT_EQ(ruleIdsOf(wrong),
              (std::vector<std::string>{"memo-DET-001"}));
    // A blanket NOLINT suppresses everything on the line.
    std::string blanket = "void f() {\n"
                          "    std::unordered_map<int, int> m;\n"
                          "    for (auto &kv : m) { (void)kv; } "
                          "// NOLINT\n"
                          "}\n";
    EXPECT_TRUE(ruleIdsOf(blanket).empty());
}

// ---------------------------------------------------------------- rules

TEST(LintRules, CatalogIsConsistent)
{
    for (const RuleInfo &r : ruleCatalog()) {
        EXPECT_EQ(findRule(r.id), &r);
        // DET and CONC are the hard contracts: errors.
        std::string fam = r.family;
        if (fam == "DET" || fam == "CONC") {
            EXPECT_EQ(r.severity, Severity::Error) << r.id;
        }
    }
    EXPECT_EQ(findRule("memo-NOPE-999"), nullptr);
}

TEST(LintRules, Det002SkipsTheSeededFuzzer)
{
    std::string src = "unsigned f() { std::random_device rd; "
                      "return rd(); }\n";
    EXPECT_EQ(ruleIdsOf(src),
              (std::vector<std::string>{"memo-DET-002"}));
    EXPECT_TRUE(ruleIdsOf(src, "src/check/fuzz.cc").empty());
}

TEST(LintRules, Det003PointerKey)
{
    EXPECT_EQ(
        ruleIdsOf("struct S {\n"
                  "    std::unordered_map<const char *, int> m;\n"
                  "};\n"),
        (std::vector<std::string>{"memo-DET-003"}));
    EXPECT_TRUE(
        ruleIdsOf("void f() { std::unordered_map<int, int> m; }")
            .empty());
}

TEST(LintRules, Fp002AccumulationInParallelBody)
{
    std::string src = "double f(const double *w, size_t n) {\n"
                      "    double total = 0.0;\n"
                      "    parallelFor(0, n, [&](size_t i) "
                      "{ total += w[i]; });\n"
                      "    return total;\n"
                      "}\n";
    EXPECT_EQ(ruleIdsOf(src),
              (std::vector<std::string>{"memo-FP-002"}));
    // Index-aligned writes are the sanctioned pattern.
    std::string ok = "void f(double *out, const double *w, size_t n) "
                     "{\n"
                     "    parallelFor(0, n, [&](size_t i) "
                     "{ out[i] = w[i]; });\n"
                     "}\n";
    EXPECT_TRUE(ruleIdsOf(ok).empty());
    // An integer re-declaration wins over a stale float of the same
    // name from an earlier function.
    EXPECT_TRUE(ruleIdsOf("double f(double a) { return a; }\n"
                          "void g(int64_t a, size_t n) {\n"
                          "    parallelFor(0, n, [&](size_t i) "
                          "{ a += i; });\n"
                          "}\n")
                    .empty());
}

TEST(LintRules, Conc001PathScoped)
{
    std::string src =
        "void f() { std::thread t(&f); t.join(); }\n";
    EXPECT_EQ(ruleIdsOf(src),
              (std::vector<std::string>{"memo-CONC-001"}));
    EXPECT_TRUE(ruleIdsOf(src, "src/exec/thread_pool.cc").empty());
    // hardware_concurrency() is a query, not a spawned thread.
    EXPECT_TRUE(
        ruleIdsOf("unsigned f() "
                  "{ return std::thread::hardware_concurrency(); }")
            .empty());
}

TEST(LintRules, Conc002ExemptsAtomicsAndConst)
{
    EXPECT_EQ(ruleIdsOf("namespace x { int counter = 0; }"),
              (std::vector<std::string>{"memo-CONC-002"}));
    EXPECT_TRUE(
        ruleIdsOf("namespace x { std::atomic<int> counter{0}; }")
            .empty());
    EXPECT_TRUE(
        ruleIdsOf("namespace x { const int table_size = 64; }")
            .empty());
    EXPECT_TRUE(
        ruleIdsOf("namespace x { constexpr double scale = 2.0; }")
            .empty());
}

TEST(LintRules, Conc003LocalStatics)
{
    EXPECT_EQ(
        ruleIdsOf("int f() { static int n = 0; return ++n; }"),
        (std::vector<std::string>{"memo-CONC-003"}));
    EXPECT_TRUE(
        ruleIdsOf("int f() { static const int n = 3; return n; }")
            .empty());
    EXPECT_TRUE(ruleIdsOf("int f() { static std::atomic<int> n{0}; "
                          "return n.load(); }")
                    .empty());
}

TEST(LintRules, Api001OnlyInObsAndExec)
{
    std::string src = "int f(Table &t) { return t.stats(); }\n";
    EXPECT_EQ(ruleIdsOf(src, "src/obs/tracer.cc"),
              (std::vector<std::string>{"memo-API-001"}));
    EXPECT_TRUE(ruleIdsOf(src, "src/sim/runner.cc").empty());
}

TEST(LintRules, Api002ChecksToolRegistration)
{
    AnalyzerOptions opt;
    opt.relPath = "tools/memo_mystery.cc";
    opt.toolsReadme = "## memo-sim blah\n";
    std::vector<Finding> fs =
        analyzeFile("int main() { return 0; }\n", opt);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_STREQ(fs[0].rule->id, "memo-API-002");

    opt.toolsReadme = "## memo-mystery — documented\n";
    EXPECT_TRUE(analyzeFile("int main() { return 0; }\n", opt).empty());
}

TEST(LintRules, Conc004RequiresAnnotatedSiblings)
{
    std::string bad = "class C {\n"
                      "    std::mutex m;\n"
                      "    int v = 0;\n"
                      "};\n";
    EXPECT_EQ(ruleIdsOf(bad),
              (std::vector<std::string>{"memo-CONC-004"}));
    // Annotated, atomic, const and explicitly-unguarded siblings are
    // all satisfied; a class without a mutex is out of scope.
    std::string ok = "class C {\n"
                     "    memo::Mutex m;\n"
                     "    int v MEMO_GUARDED_BY(m) = 0;\n"
                     "    std::atomic<int> hits{0};\n"
                     "    const int ways = 4;\n"
                     "    std::vector<int> cold MEMO_UNGUARDED;\n"
                     "};\n";
    EXPECT_TRUE(ruleIdsOf(ok).empty());
    EXPECT_TRUE(ruleIdsOf("class C {\n    int v = 0;\n};\n").empty());
    // Member functions, nested types and enums are not fields; a
    // field initialised by a call still is one.
    std::string members = "struct S {\n"
                          "    std::mutex m;\n"
                          "    S() : n(0) {}\n"
                          "    int get() const MEMO_REQUIRES(m);\n"
                          "    enum class K { A, B };\n"
                          "    struct Inner { int x; };\n"
                          "    int n MEMO_GUARDED_BY(m);\n"
                          "    int seeded = make();\n"
                          "};\n";
    EXPECT_EQ(ruleIdsOf(members),
              (std::vector<std::string>{"memo-CONC-004"}));
}

TEST(LintRules, LintAsOverride)
{
    EXPECT_EQ(lintAsOverride("// LINT-AS: src/exec/x.cc\nint a;"),
              "src/exec/x.cc");
    EXPECT_EQ(lintAsOverride("int a;\n"), "");
}

// --------------------------------------------------------------- driver

TEST(LintDriver, AnyFindingFails)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("memo_lint_driver_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir / "src");
    {
        std::ofstream f(dir / "src" / "w.cc");
        f << "int f() { static int n = 0; return ++n; }\n";
    }
    DriverConfig cfg;
    cfg.root = dir.string();
    cfg.paths = {(dir / "src").string()};
    std::ostringstream out, err;
    EXPECT_EQ(runLint(cfg, out, err), 1);
    EXPECT_NE(out.str().find("memo-CONC-003"), std::string::npos);
    EXPECT_NE(out.str().find("1 findings"), std::string::npos);
    fs::remove_all(dir);
}

TEST(LintDriver, RetiredOptionsAreUsageErrors)
{
    const std::string src = std::string(MEMO_SOURCE_DIR) + "/src/lint";
    for (std::vector<std::string> args :
         {std::vector<std::string>{"--baseline", "x", src},
          std::vector<std::string>{"--update-baseline", "x", src},
          std::vector<std::string>{"--format", "json", src}}) {
        std::ostringstream out, err;
        EXPECT_EQ(lintMain(args, out, err), 2) << args[0];
        const std::string &named = args[0] == "--format" ? args[1]
                                                         : args[0];
        EXPECT_NE(err.str().find(named), std::string::npos)
            << err.str();
    }
}

TEST(LintDriver, MissingValueNamesTheOption)
{
    for (const char *flag : {"--root", "--format", "--self-test"}) {
        std::ostringstream out, err;
        EXPECT_EQ(lintMain({flag}, out, err), 2) << flag;
        EXPECT_NE(err.str().find(std::string(flag) + " needs a value"),
                  std::string::npos)
            << err.str();
    }
}

TEST(LintDriver, HelpListsExactlyTheSupportedOptions)
{
    std::ostringstream out, err;
    ASSERT_EQ(lintMain({"--help"}, out, err), 0);
    std::set<std::string> options;
    std::istringstream help(out.str());
    for (std::string word; help >> word;)
        if (word.rfind("--", 0) == 0)
            options.insert(word);
    EXPECT_EQ(options,
              (std::set<std::string>{"--format", "--help", "--list-rules",
                                     "--root", "--self-test"}));
}

// ------------------------------------------------------------- emitters

TEST(LintEmit, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(LintEmit, SarifShape)
{
    const RuleInfo *det = findRule("memo-DET-001");
    std::vector<Finding> fs = {{det, "src/a.cc", 3, 7, "msg"}};

    std::ostringstream sf;
    emitSarif(sf, fs);
    EXPECT_NE(sf.str().find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sf.str().find("\"ruleId\": \"memo-DET-001\""),
              std::string::npos);
    // The catalog rides along for code-scanning UIs.
    EXPECT_NE(sf.str().find("memo-CONC-001"), std::string::npos);
}

// ------------------------------------------------------------- self-run

TEST(LintSelfRun, RepoHasNoFindings)
{
    DriverConfig cfg;
    cfg.root = MEMO_SOURCE_DIR;
    cfg.paths = {std::string(MEMO_SOURCE_DIR) + "/src",
                 std::string(MEMO_SOURCE_DIR) + "/tools",
                 std::string(MEMO_SOURCE_DIR) + "/tests"};
    std::ostringstream out, err;
    EXPECT_EQ(runLint(cfg, out, err), 0)
        << "lint findings:\n"
        << out.str() << err.str();
}

TEST(LintSelfRun, FixturesSatisfyTheirExpectations)
{
    DriverConfig cfg;
    cfg.root = MEMO_SOURCE_DIR;
    cfg.selfTestDir =
        std::string(MEMO_SOURCE_DIR) + "/tests/lint_fixtures";
    std::ostringstream out, err;
    EXPECT_EQ(runLint(cfg, out, err), 0) << err.str();
}

TEST(LintSelfRun, EveryRuleHasAFixtureWhoseMutationIsCaught)
{
    // The fixture self-test guards the catalog only if each rule has
    // a positive fixture and disarming any fixture's EXPECT/NOLINT
    // annotations makes the self-test fail: a positive fixture then
    // reports findings nobody expects, a nolint fixture unsuppressed
    // ones.
    namespace fs = std::filesystem;
    const fs::path fixtures =
        fs::path(MEMO_SOURCE_DIR) / "tests" / "lint_fixtures";
    // Per process: two build trees may run this test at once.
    const fs::path dir =
        fs::temp_directory_path() /
        ("memo_lint_fixture_mutation_" + std::to_string(::getpid()));
    std::set<std::string> covered;
    for (const auto &entry : fs::directory_iterator(fixtures)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        std::string mutated = ss.str();

        for (const Comment &c : lex(mutated).comments) {
            size_t p = c.text.find("EXPECT:");
            if (p == std::string::npos)
                continue;
            std::istringstream ids(c.text.substr(p + 7));
            for (std::string id; ids >> id;)
                covered.insert(id);
        }
        bool armed = false;
        for (std::string_view mark : {"EXPECT:", "NOLINT"})
            for (size_t p = mutated.find(mark); p != std::string::npos;
                 p = mutated.find(mark, p)) {
                mutated.replace(p, mark.size(), "disarmed");
                armed = true;
            }
        if (!armed)
            continue; // a clean fixture has nothing to disarm

        fs::remove_all(dir);
        fs::create_directories(dir);
        std::ofstream(dir / entry.path().filename()) << mutated;
        DriverConfig cfg;
        cfg.root = MEMO_SOURCE_DIR;
        cfg.selfTestDir = dir.string();
        std::ostringstream out, err;
        EXPECT_EQ(runLint(cfg, out, err), 1)
            << entry.path().filename() << " still passes disarmed";
    }
    fs::remove_all(dir);
    for (const RuleInfo &r : ruleCatalog())
        EXPECT_TRUE(covered.count(r.id)) << r.id << " has no EXPECT";
}

// ----------------------------------------------------------------- fuzz

namespace
{

/**
 * Seed fragments for the fuzzed sources: plausible C++ that exercises
 * the analyzer's passes (scope tracking, declaration scanning, every
 * rule family, suppressions, preprocessor and literal lexing).
 */
constexpr const char *fuzz_frags[] = {
    "class Box {\n  std::mutex m;\n  int v = 0;\n};\n",
    "struct Reg {\n  std::map<const Reg *, int> seen;\n"
    "  int get(Table &t) const { return t.stats(); }\n};\n",
    "double acc(const double *w, size_t n) {\n  double s = 0.0;\n"
    "  parallelFor(0, n, [&](size_t i) { s += w[i]; });\n"
    "  return s + std::chrono::steady_clock::now();\n}\n",
    "double mix(double a, double b) {\n  if (a == b) return 0.0;\n"
    "  return a / b;\n}\n",
    "std::unordered_map<int, int> gmap;\nint fold() {\n  int s = 0;\n"
    "  for (auto &kv : gmap) s += kv.second;\n  return s;\n}\n",
    "static int counter = 0;\nvoid bump() { counter++; }\n",
    "void fanout() {\n  std::thread t([] {});\n  t.detach();\n}\n",
    "int Reg::bump() { return n++; }\n",
    "#define WIDGET(x) ((x) * 2)\n#include <vector>\n",
    "const char *s = \"/* not a comment */\";\nchar c = '\\n';\n",
    "/* block\n   comment */\n",
    "auto lam = [](int q) { return q ? 0x1p-3 : 2e+4; };\n",
    "// NOLINTNEXTLINE(memo-DET-002)\nunsigned z() "
    "{ return rand(); }\n",
};

/** Mutation dictionary biased toward lexer state machines. */
constexpr const char *fuzz_dict[] = {
    "/*", "*/", "//", "\"", "'", "R\"(", ")\"", "#", "\\\n", "\n",
    "{",  "}",  "(",  ")",  "::", "e+",  "'\\", "NOLINT(",
    "std::unordered_map<int, int> um;", "std::mutex mm;", "\x01", "\xff",
};

/** A mutated pseudo-C++ translation unit. */
std::string
fuzzSource(memo::check::FuzzRng &rng)
{
    std::string s;
    unsigned frags = 2 + static_cast<unsigned>(rng.below(8));
    for (unsigned i = 0; i < frags; i++)
        s += fuzz_frags[rng.below(std::size(fuzz_frags))];

    unsigned muts = static_cast<unsigned>(rng.below(12));
    for (unsigned i = 0; i < muts && !s.empty(); i++) {
        size_t pos = rng.below(s.size() + 1);
        switch (rng.below(4)) {
          case 0: // splice a dictionary token
            s.insert(pos, fuzz_dict[rng.below(std::size(fuzz_dict))]);
            break;
          case 1: { // delete a short range
            size_t n = 1 + rng.below(8);
            if (pos < s.size())
                s.erase(pos, std::min(n, s.size() - pos));
            break;
          }
          case 2: // flip one byte
            if (pos < s.size())
                s[pos] = static_cast<char>(
                    static_cast<uint8_t>(s[pos]) ^
                    (1u << rng.below(8)));
            break;
          default: { // duplicate a short range (comment/quote nesting)
            size_t n = 1 + rng.below(16);
            if (pos < s.size())
                s.insert(pos,
                         s.substr(pos, std::min(n, s.size() - pos)));
            break;
          }
        }
    }
    return s;
}

/**
 * The invariants one fuzzed source must satisfy: the lexer and the
 * analyzer never crash, are deterministic, and keep positions
 * coherent — token (line, col) strictly increases, lines stay within
 * the file, and a comment spans exactly the newlines of its body (±1
 * for an unterminated trailing comment). The position checks are what
 * the injected lexer fault must trip.
 */
std::optional<std::string>
fuzzOracle(const std::string &source, bool with_header)
{
    LexResult one = lex(source);
    LexResult two = lex(source);
    if (one.tokens.size() != two.tokens.size() ||
        one.comments.size() != two.comments.size())
        return "lex not deterministic: token/comment counts differ";
    for (size_t i = 0; i < one.tokens.size(); i++) {
        const Token &x = one.tokens[i];
        const Token &y = two.tokens[i];
        if (x.kind != y.kind || x.text != y.text || x.line != y.line ||
            x.col != y.col)
            return "lex not deterministic at token " +
                   std::to_string(i);
    }

    int total_lines = 1;
    for (char c : source)
        total_lines += c == '\n';

    int prev_line = 1, prev_col = 0;
    for (size_t i = 0; i < one.tokens.size(); i++) {
        const Token &t = one.tokens[i];
        if (t.line < 1 || t.col < 1 || t.line > total_lines)
            return "token " + std::to_string(i) +
                   " positioned outside the file: line " +
                   std::to_string(t.line) + " of " +
                   std::to_string(total_lines);
        if (t.line < prev_line ||
            (t.line == prev_line && t.col <= prev_col))
            return "token positions not strictly increasing at token " +
                   std::to_string(i);
        prev_line = t.line;
        prev_col = t.col;
    }
    for (size_t i = 0; i < one.comments.size(); i++) {
        const Comment &c = one.comments[i];
        int body_newlines = 0;
        for (char ch : c.text)
            body_newlines += ch == '\n';
        if (c.line < 1 || c.endLine < c.line ||
            c.endLine > total_lines)
            return "comment " + std::to_string(i) +
                   " spans impossible lines " + std::to_string(c.line) +
                   ".." + std::to_string(c.endLine);
        int span = c.endLine - c.line;
        if (span < body_newlines || span > body_newlines + 1)
            return "comment " + std::to_string(i) + " spans " +
                   std::to_string(span) + " lines but its body has " +
                   std::to_string(body_newlines) + " newlines";
    }

    // The analyzer over the same source (under a path that arms the
    // path-scoped DET-002, CONC-001 and API-001) must not crash and
    // must produce the same findings twice.
    AnalyzerOptions opt;
    opt.relPath = "src/obs/fuzzed.cc";
    if (with_header)
        opt.companionHeader = source;
    std::vector<Finding> f1 = analyzeFile(source, opt);
    std::vector<Finding> f2 = analyzeFile(source, opt);
    if (f1.size() != f2.size())
        return "analyzeFile not deterministic: finding counts differ";
    for (size_t i = 0; i < f1.size(); i++)
        if (std::string_view(f1[i].rule->id) != f2[i].rule->id ||
            f1[i].line != f2[i].line || f1[i].col != f2[i].col)
            return "analyzeFile not deterministic at finding " +
                   std::to_string(i);
    return std::nullopt;
}

/** Fuzzed sources per campaign (each also drawn with a header). */
constexpr unsigned fuzz_cases = 1000;

/** Arms the lexer fault for one scope, disarming it on every exit. */
struct LexerFault
{
    LexerFault() { setLexerFaultInjection(true); }
    ~LexerFault() { setLexerFaultInjection(false); }
};

} // anonymous namespace

TEST(LintFuzz, MutatedSourcesHoldTheOracle)
{
    // The linter runs over arbitrary future code, so garbage input must
    // hold fuzzOracle's invariants; under ASan/UBSan this is mainly a
    // never-crashes guarantee. One private stream per case, so a
    // failing case is reproduced from its index alone.
    memo::check::FuzzRng campaign(1);
    for (unsigned i = 0; i < fuzz_cases; i++) {
        memo::check::FuzzRng rng(campaign.next());
        std::string source = fuzzSource(rng);
        bool with_header = rng.chance(1, 3);
        auto violation = fuzzOracle(source, with_header);
        ASSERT_FALSE(violation.has_value())
            << "case " << i << (with_header ? " (also as header)" : "")
            << ": " << *violation << "\n--- source ---\n" << source;
    }
}

TEST(LintFuzz, EveryFragmentHoldsTheOracleUnmutated)
{
    // The campaign's seed material itself, alone, as its own header,
    // and all of it in one file.
    std::string all;
    for (const char *frag : fuzz_frags) {
        all += frag;
        for (bool with_header : {false, true}) {
            auto violation = fuzzOracle(frag, with_header);
            EXPECT_FALSE(violation) << *violation << "\n--- in ---\n" << frag;
        }
    }
    auto violation = fuzzOracle(all, true);
    EXPECT_FALSE(violation) << *violation;
}

TEST(LintFuzz, EveryDictionaryTokenHoldsTheOracle)
{
    // Each mutation token alone, and spliced into the middle of a
    // fragment (unterminated quotes, comments and raw strings reach
    // end of file there).
    const std::string host = fuzz_frags[3];
    for (const char *token : fuzz_dict) {
        std::string spliced = host;
        spliced.insert(spliced.size() / 2, token);
        for (const std::string &src : {std::string(token), spliced}) {
            auto violation = fuzzOracle(src, false);
            EXPECT_FALSE(violation) << *violation << "\n--- in ---\n" << src;
        }
    }
}

TEST(LintFuzz, OracleCatchesTheInjectedLexerFault)
{
    const std::string canonical = "/* a\n b */ int x;\n";
    ASSERT_FALSE(fuzzOracle(canonical, false).has_value());
    LexerFault fault;
    EXPECT_TRUE(fuzzOracle(canonical, false).has_value());

    // The fuzzed sources carry multi-line block comments, so the
    // campaign itself must trip on the fault too.
    memo::check::FuzzRng campaign(1);
    unsigned caught = 0;
    for (unsigned i = 0; i < fuzz_cases; i++) {
        memo::check::FuzzRng rng(campaign.next());
        std::string source = fuzzSource(rng);
        caught += fuzzOracle(source, rng.chance(1, 3)).has_value();
    }
    EXPECT_GT(caught, 0u);
}
