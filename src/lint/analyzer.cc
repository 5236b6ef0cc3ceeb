#include "analyzer.hh"

#include <algorithm>
#include <map>
#include <set>

#include "lint/lexer.hh"

namespace memo::lint
{

namespace
{

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

// ---------------------------------------------------------------------
// Declaration tracking (heuristic, by name).

struct DeclInfo
{
    std::set<std::string> unordered; //!< unordered_map/set variables
    std::set<std::string> floats;    //!< double/float variables
};

bool
isTypeQualifier(const Token &t)
{
    return t.text == "*" || t.text == "&" || t.text == "const" ||
           t.text == ">";
}

/**
 * Scan declarations: track unordered-container and float variable
 * names, and (when @p findings is set) report pointer-valued map/set
 * keys as memo-DET-003.
 */
void
scanDecls(const std::vector<Token> &toks, DeclInfo &out,
          std::vector<Finding> *findings, const std::string &file)
{
    auto text = [&](size_t i) -> std::string_view {
        return i < toks.size() ? std::string_view(toks[i].text)
                               : std::string_view();
    };

    for (size_t i = 0; i < toks.size(); i++) {
        if (toks[i].kind != TokKind::Ident)
            continue;
        const std::string &name = toks[i].text;

        bool is_unordered = name == "unordered_map" ||
                            name == "unordered_set" ||
                            name == "unordered_multimap" ||
                            name == "unordered_multiset";
        bool is_ordered_assoc = name == "map" || name == "set" ||
                                name == "multimap" ||
                                name == "multiset";
        // Bare "map"/"set" are common variable names; require the
        // std:: qualifier for the ordered containers.
        if (is_ordered_assoc && text(i - 1) != "::")
            is_ordered_assoc = false;

        if ((is_unordered || is_ordered_assoc) && text(i + 1) == "<") {
            // Walk the template argument list; collect the key type.
            int depth = 1;
            size_t j = i + 2;
            std::vector<size_t> first_arg;
            bool in_first = true;
            size_t guard = 0;
            for (; j < toks.size() && depth > 0 && guard < 256;
                 j++, guard++) {
                std::string_view t = text(j);
                if (t == "<")
                    depth++;
                else if (t == ">")
                    depth--;
                else if (t == ">>")
                    depth -= 2;
                else if (t == "," && depth == 1)
                    in_first = false;
                if (depth <= 0)
                    break;
                if (in_first && t != ",")
                    first_arg.push_back(j);
            }
            if (depth > 0)
                continue; // unbalanced: not a template, bail out
            if (findings && !first_arg.empty() &&
                text(first_arg.back()) == "*") {
                findings->push_back(
                    {findRule("memo-DET-003"), file, toks[i].line,
                     toks[i].col,
                     "container key type of '" + name +
                         "' is a raw pointer"});
            }
            // The declared variable name, if this is a declaration.
            size_t k = j + 1;
            while (k < toks.size() && isTypeQualifier(toks[k]))
                k++;
            if (is_unordered && k < toks.size() &&
                toks[k].kind == TokKind::Ident &&
                text(k + 1) != "(")
                out.unordered.insert(toks[k].text);
            continue;
        }

        // A later re-declaration with an integer type wins: without
        // this, "double a" in one function taints "int64_t a" in the
        // next (the sets are file-wide, not scope-aware).
        bool is_int_type =
            name == "int" || name == "long" || name == "short" ||
            name == "unsigned" || name == "signed" ||
            name == "bool" || name == "char" ||
            (name.size() > 2 && endsWith(name, "_t"));
        if (is_int_type) {
            std::string_view prev = text(i - 1);
            if (prev != "::" && prev != "." && prev != "->" &&
                prev != "<") {
                size_t k = i + 1;
                while (k < toks.size() && isTypeQualifier(toks[k]))
                    k++;
                if (k < toks.size() &&
                    toks[k].kind == TokKind::Ident)
                    out.floats.erase(toks[k].text);
            }
            continue;
        }

        if (name == "double" || name == "float") {
            std::string_view prev = text(i - 1);
            if (prev == "::" || prev == "." || prev == "->" ||
                prev == "<")
                continue; // cast / template argument, not a decl
            size_t k = i + 1;
            while (k < toks.size() && (toks[k].text == "*" ||
                                       toks[k].text == "&" ||
                                       toks[k].text == "const"))
                k++;
            if (k >= toks.size() || toks[k].kind != TokKind::Ident)
                continue;
            if (text(k + 1) == "(")
                continue; // function or constructor declaration
            out.floats.insert(toks[k].text);
            // Comma chains: double a = 0.0, b, *c;
            size_t guard = 0;
            size_t p = k + 1;
            int depth = 0;
            while (p < toks.size() && guard++ < 64) {
                std::string_view t = text(p);
                if (t == "(" || t == "[" || t == "{")
                    depth++;
                else if (t == ")" || t == "]" || t == "}")
                    depth--;
                if (depth < 0 || t == ";")
                    break;
                if (t == "," && depth == 0) {
                    size_t q = p + 1;
                    while (q < toks.size() && (toks[q].text == "*" ||
                                               toks[q].text == "&"))
                        q++;
                    // `text(q+1) == "::"` means q is the head of a
                    // qualified name — the type of the next parameter
                    // in a signature, not a comma-chained declarator.
                    if (q < toks.size() &&
                        toks[q].kind == TokKind::Ident &&
                        text(q + 1) != "(" && text(q + 1) != "::")
                        out.floats.insert(toks[q].text);
                    p = q;
                }
                p++;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Brace/scope tracking.

enum class BraceKind : uint8_t
{
    Namespace,
    Class,
    Function,
    Block,
    Init,
};

struct ScopeInfo
{
    std::vector<int> match; //!< per-token matching bracket, or -1
    std::vector<bool> inFunction;  //!< token is inside function code
    std::vector<bool> atNamespace; //!< namespace/TU scope (Init is
                                   //!< transparent)
    std::vector<BraceKind> braceKind; //!< valid at each '{' token
};

ScopeInfo
buildScopes(const std::vector<Token> &toks)
{
    ScopeInfo s;
    size_t n = toks.size();
    s.match.assign(n, -1);
    s.inFunction.assign(n, false);
    s.atNamespace.assign(n, true);
    s.braceKind.assign(n, BraceKind::Block);

    // Pass 1: bracket matching.
    std::vector<size_t> stack;
    for (size_t i = 0; i < n; i++) {
        const std::string &t = toks[i].text;
        if (toks[i].kind != TokKind::Punct)
            continue;
        if (t == "(" || t == "{" || t == "[") {
            stack.push_back(i);
        } else if (t == ")" || t == "}" || t == "]") {
            if (!stack.empty()) {
                s.match[stack.back()] = static_cast<int>(i);
                s.match[i] = static_cast<int>(stack.back());
                stack.pop_back();
            }
        }
    }

    // Pass 2: classify each '{' with lookbehind and maintain the
    // scope stack.
    auto classify = [&](size_t i) -> BraceKind {
        if (i == 0)
            return BraceKind::Block;
        const Token &p = toks[i - 1];
        // Boundary scan: back to the last ; { } (or file start).
        size_t b = i - 1;
        bool saw_namespace = false, saw_class = false;
        int last_close_paren = -1;
        while (true) {
            const std::string &t = toks[b].text;
            if (t == ";" || t == "{" || t == "}")
                break;
            if (toks[b].kind == TokKind::Ident) {
                if (t == "namespace")
                    saw_namespace = true;
                if (t == "class" || t == "struct" || t == "union" ||
                    t == "enum")
                    saw_class = true;
            }
            if (t == ")" && last_close_paren < 0)
                last_close_paren = static_cast<int>(b);
            if (b == 0)
                break;
            b--;
        }
        if (saw_namespace)
            return BraceKind::Namespace;
        if (saw_class)
            return BraceKind::Class;
        if (last_close_paren >= 0) {
            int open = s.match[static_cast<size_t>(last_close_paren)];
            if (open > 0) {
                const std::string &k = toks[static_cast<size_t>(open) -
                                            1].text;
                if (k == "if" || k == "for" || k == "while" ||
                    k == "switch" || k == "catch")
                    return BraceKind::Block;
            }
            return BraceKind::Function;
        }
        if (p.text == "else" || p.text == "do" || p.text == "try")
            return BraceKind::Block;
        if (p.kind == TokKind::Ident || p.text == "," ||
            p.text == "(" || p.text == "=" || p.text == "[")
            return BraceKind::Init;
        return BraceKind::Block;
    };

    std::vector<BraceKind> kinds;
    bool in_fn = false;
    bool at_ns = true;
    auto recompute = [&]() {
        in_fn = false;
        at_ns = true;
        for (BraceKind k : kinds) {
            if (k == BraceKind::Function || k == BraceKind::Block)
                in_fn = true;
            if (k != BraceKind::Namespace && k != BraceKind::Init)
                at_ns = false;
        }
    };
    for (size_t i = 0; i < n; i++) {
        const std::string &t = toks[i].text;
        if (toks[i].kind == TokKind::Punct && t == "{") {
            s.inFunction[i] = in_fn;
            s.atNamespace[i] = at_ns;
            s.braceKind[i] = classify(i);
            kinds.push_back(s.braceKind[i]);
            recompute();
            continue;
        }
        if (toks[i].kind == TokKind::Punct && t == "}") {
            if (!kinds.empty()) {
                kinds.pop_back();
                recompute();
            }
            s.inFunction[i] = in_fn;
            s.atNamespace[i] = at_ns;
            continue;
        }
        s.inFunction[i] = in_fn;
        s.atNamespace[i] = at_ns;
    }
    return s;
}

// ---------------------------------------------------------------------
// Suppressions.

struct Suppression
{
    bool blanket = false;
    std::set<std::string> rules;
};

std::map<int, Suppression>
buildSuppressions(const std::vector<Comment> &comments)
{
    std::map<int, Suppression> supp;
    auto parse = [&](const std::string &text, size_t pos, int line) {
        Suppression &s = supp[line];
        size_t p = pos;
        while (p < text.size() && text[p] == ' ')
            p++;
        if (p >= text.size() || text[p] != '(') {
            s.blanket = true;
            return;
        }
        size_t close = text.find(')', p);
        std::string list = text.substr(
            p + 1, close == std::string::npos ? std::string::npos
                                              : close - p - 1);
        std::string cur;
        for (char c : list + ",") {
            if (c == ',' || c == ' ') {
                if (!cur.empty())
                    s.rules.insert(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (s.rules.empty())
            s.blanket = true;
    };
    for (const Comment &c : comments) {
        size_t p = c.text.find("NOLINTNEXTLINE");
        if (p != std::string::npos) {
            parse(c.text, p + 14, c.endLine + 1);
            continue;
        }
        p = c.text.find("NOLINT");
        if (p != std::string::npos)
            parse(c.text, p + 6, c.line);
    }
    return supp;
}

bool
isSuppressed(const Finding &f,
             const std::map<int, Suppression> &supp)
{
    auto it = supp.find(f.line);
    if (it == supp.end())
        return false;
    return it->second.blanket || it->second.rules.count(f.rule->id);
}

// ---------------------------------------------------------------------
// Rule passes.

struct Pass
{
    const std::vector<Token> &toks;
    const ScopeInfo &scope;
    const DeclInfo &decls;
    const AnalyzerOptions &opt;
    std::vector<Finding> &fs;

    std::string_view
    text(size_t i) const
    {
        return i < toks.size() ? std::string_view(toks[i].text)
                               : std::string_view();
    }

    void
    report(const char *rule, size_t i, std::string message)
    {
        fs.push_back({findRule(rule), opt.relPath, toks[i].line,
                      toks[i].col, std::move(message)});
    }

    /** DET-001 plus the body spans reused by FP-002. */
    std::vector<std::pair<size_t, size_t>>
    unorderedIterationAndSpans()
    {
        std::vector<std::pair<size_t, size_t>> spans;
        for (size_t i = 0; i + 1 < toks.size(); i++) {
            if (toks[i].kind != TokKind::Ident || text(i) != "for" ||
                text(i + 1) != "(")
                continue;
            int close = scope.match[i + 1];
            if (close < 0)
                continue;
            size_t m = static_cast<size_t>(close);
            // Find the range-for ':' at top nesting level.
            int depth = 0;
            size_t colon = 0;
            for (size_t j = i + 2; j < m; j++) {
                std::string_view t = text(j);
                if (t == "(" || t == "[" || t == "{")
                    depth++;
                else if (t == ")" || t == "]" || t == "}")
                    depth--;
                else if (t == ":" && depth == 0) {
                    colon = j;
                    break;
                } else if (t == ";" && depth == 0) {
                    break; // classic for loop
                }
            }
            if (!colon)
                continue;
            bool unordered = false;
            std::string range_name;
            for (size_t j = colon + 1; j < m; j++) {
                if (toks[j].kind != TokKind::Ident)
                    continue;
                if (decls.unordered.count(toks[j].text) ||
                    startsWith(toks[j].text, "unordered_")) {
                    unordered = true;
                    range_name = toks[j].text;
                    break;
                }
            }
            if (!unordered)
                continue;
            report("memo-DET-001", i,
                   "range-for over unordered container '" +
                       range_name + "'");
            size_t body = m + 1;
            if (body < toks.size() && text(body) == "{" &&
                scope.match[body] > 0)
                spans.emplace_back(
                    body, static_cast<size_t>(scope.match[body]));
            else {
                size_t e = body;
                while (e < toks.size() && text(e) != ";")
                    e++;
                spans.emplace_back(body, e);
            }
        }
        return spans;
    }

    void
    wallClockAndRandomness()
    {
        if (opt.relPath == "src/check/fuzz.cc" ||
            opt.relPath == "src/check/fuzz.hh" ||
            opt.relPath == "tools/memo_fuzz.cc")
            return; // the seeded fuzzer owns its randomness
        if (opt.relPath.rfind("src/prof/", 0) == 0)
            return; // the host profiler owns the sanctioned wall clock
                    // (prof::nowNs); see src/prof/prof.hh
        static const std::set<std::string> clocks = {
            "system_clock", "steady_clock", "high_resolution_clock",
            "file_clock",   "utc_clock",    "tai_clock",
            "gps_clock"};
        for (size_t i = 0; i < toks.size(); i++) {
            if (toks[i].kind != TokKind::Ident)
                continue;
            const std::string &name = toks[i].text;
            if (name == "random_device" || clocks.count(name)) {
                report("memo-DET-002",
                       i, "'" + name + "' is nondeterministic input");
                continue;
            }
            if ((name == "rand" || name == "srand" ||
                 name == "gettimeofday" || name == "getrandom") &&
                text(i + 1) == "(") {
                report("memo-DET-002",
                       i, "call to '" + name + "()'");
                continue;
            }
            if ((name == "time" || name == "clock") &&
                text(i + 1) == "(" && text(i - 1) != "." &&
                text(i - 1) != "->" &&
                (i == 0 || toks[i - 1].kind != TokKind::Ident)) {
                report("memo-DET-002",
                       i, "call to '" + name + "()' reads wall time");
            }
        }
    }

    void
    floatAccumulation(
        std::vector<std::pair<size_t, size_t>> spans)
    {
        for (size_t i = 0; i + 1 < toks.size(); i++) {
            if (toks[i].kind != TokKind::Ident ||
                (text(i) != "parallelFor" && text(i) != "sweep") ||
                text(i + 1) != "(")
                continue;
            int close = scope.match[i + 1];
            if (close > 0)
                spans.emplace_back(i + 1,
                                   static_cast<size_t>(close));
        }
        for (auto [b, e] : spans) {
            for (size_t j = b; j < e && j < toks.size(); j++) {
                if (toks[j].kind != TokKind::Punct ||
                    (text(j) != "+=" && text(j) != "-="))
                    continue;
                if (j > 0 && toks[j - 1].kind == TokKind::Ident &&
                    decls.floats.count(toks[j - 1].text))
                    report("memo-FP-002", j,
                           "'" + toks[j - 1].text + " " +
                               toks[j].text +
                               "' folds in unspecified order");
            }
        }
    }

    void
    rawThreads()
    {
        if (startsWith(opt.relPath, "src/exec/"))
            return; // the executor owns the primitives
        for (size_t i = 0; i < toks.size(); i++) {
            if (toks[i].kind != TokKind::Ident)
                continue;
            const std::string &name = toks[i].text;
            bool std_qualified = i >= 2 && text(i - 1) == "::" &&
                                 text(i - 2) == "std";
            if ((name == "thread" || name == "jthread") &&
                std_qualified && text(i + 1) != "::") {
                report("memo-CONC-001", i, "raw std::" + name);
            } else if (name == "async" && std_qualified) {
                report("memo-CONC-001", i, "raw std::async");
            } else if (name == "detach" &&
                       (text(i - 1) == "." || text(i - 1) == "->") &&
                       text(i + 1) == "(") {
                report("memo-CONC-001", i, "detached thread");
            }
        }
    }

    void
    mutableGlobals()
    {
        static const std::set<std::string> skip_heads = {
            "using",     "typedef",  "template", "friend",
            "static_assert", "extern", "class",  "struct",
            "union",     "enum",     "namespace", "public",
            "private",   "protected", "operator", "return",
            "goto"};
        static const std::set<std::string> exempt = {
            "const",     "constexpr",          "constinit",
            "thread_local", "once_flag",       "mutex",
            "condition_variable"};

        auto classify = [&](size_t s0, size_t s1) {
            if (s1 - s0 < 2)
                return;
            if (toks[s0].kind != TokKind::Ident ||
                skip_heads.count(toks[s0].text))
                return;
            int depth = 0;
            size_t eq = 0;
            bool paren_before_eq = false, any_paren = false;
            for (size_t j = s0; j < s1; j++) {
                std::string_view t = text(j);
                if (toks[j].kind == TokKind::Ident &&
                    (exempt.count(toks[j].text) ||
                     toks[j].text.find("atomic") !=
                         std::string::npos))
                    return;
                if (t == "(" || t == "[")
                    depth++;
                else if (t == ")" || t == "]")
                    depth--;
                if (t == "(") {
                    any_paren = true;
                    if (!eq)
                        paren_before_eq = true;
                }
                if (t == "=" && depth == 0 && !eq)
                    eq = j;
            }
            if (eq ? paren_before_eq : any_paren)
                return; // function declaration or macro call
            report("memo-CONC-002", s0,
                   "mutable namespace-scope variable '" +
                       (toks[s0 + 1].kind == TokKind::Ident
                            ? toks[s0 + 1].text
                            : toks[s0].text) +
                       "'");
        };

        size_t start = static_cast<size_t>(-1);
        for (size_t i = 0; i < toks.size(); i++) {
            if (!scope.atNamespace[i]) {
                continue;
            }
            if (toks[i].kind == TokKind::Preproc)
                continue;
            std::string_view t = text(i);
            if (start == static_cast<size_t>(-1)) {
                if (t == ";" || t == "{" || t == "}")
                    continue;
                start = i;
                continue;
            }
            if (t == ";") {
                classify(start, i);
                start = static_cast<size_t>(-1);
            } else if (t == "{" &&
                       scope.braceKind[i] != BraceKind::Init) {
                // Entering a namespace/class/function body: the
                // pending tokens were a definition header.
                start = static_cast<size_t>(-1);
            }
        }
    }

    void
    mutableLocalStatics()
    {
        static const std::set<std::string> exempt = {
            "const",     "constexpr",          "constinit",
            "thread_local", "once_flag",       "mutex",
            "condition_variable"};
        for (size_t i = 0; i < toks.size(); i++) {
            if (toks[i].kind != TokKind::Ident ||
                text(i) != "static" || !scope.inFunction[i])
                continue;
            bool ok = false, name_done = false;
            std::string name;
            for (size_t j = i + 1; j < toks.size() && j < i + 120;
                 j++) {
                std::string_view t = text(j);
                if (t == ";")
                    break;
                if (t == "(" || t == "=" || t == "{")
                    name_done = true;
                if (toks[j].kind == TokKind::Ident) {
                    if (exempt.count(toks[j].text) ||
                        toks[j].text.find("atomic") !=
                            std::string::npos) {
                        ok = true;
                        break;
                    }
                    if (!name_done)
                        name = toks[j].text;
                }
            }
            if (!ok)
                report("memo-CONC-003", i,
                       "mutable function-local static" +
                           (name.empty() ? "" : " '" + name + "'"));
        }
    }

    /**
     * memo-CONC-004: a class with a mutex member annotates every
     * mutable sibling field. Clang's -Wthread-safety checks only
     * fields that already carry MEMO_GUARDED_BY, so it never sees a
     * new unannotated one. A lexical scan of each class body's member
     * declarations; member functions, nested types and access
     * specifiers are skipped.
     */
    void
    unannotatedSiblings()
    {
        struct Field
        {
            size_t tok;
            bool lockable;
            bool needsAnnotation;
        };
        auto isLockable = [](std::string_view t) {
            return t == "mutex" || t == "timed_mutex" ||
                   t == "recursive_mutex" ||
                   t == "recursive_timed_mutex" || t == "shared_mutex" ||
                   t == "shared_timed_mutex" || t == "Mutex";
        };
        auto isExemptType = [](std::string_view t) {
            return t == "condition_variable" ||
                   t == "condition_variable_any" || t == "once_flag" ||
                   t.find("atomic") != std::string_view::npos;
        };

        // One member statement, its nested groups reduced to their
        // opening token: a field, or nothing.
        auto field = [&](const std::vector<size_t> &stmt,
                         std::vector<Field> &out) {
            bool annotated = false, exempt = false, lockable = false;
            std::vector<size_t> decl;
            for (size_t p = 0; p < stmt.size(); p++) {
                const Token &t = toks[stmt[p]];
                if (t.kind != TokKind::Ident ||
                    !startsWith(t.text, "MEMO_")) {
                    decl.push_back(stmt[p]);
                    continue;
                }
                if (t.text == "MEMO_UNGUARDED" ||
                    t.text == "MEMO_GUARDED_BY" ||
                    t.text == "MEMO_PT_GUARDED_BY")
                    annotated = true;
                if (p + 1 < stmt.size() && stmt[p + 1] == stmt[p] + 1 &&
                    text(stmt[p + 1]) == "(")
                    p++; // the macro's argument list
            }
            static const std::set<std::string> skip_heads = {
                "using",  "typedef", "friend", "static_assert",
                "enum",   "template"};
            if (decl.empty() || skip_heads.count(toks[decl[0]].text))
                return;
            int angle = 0;
            size_t name = 0;
            for (size_t k : decl) {
                std::string_view t = text(k);
                if (toks[k].kind == TokKind::Punct) {
                    if (t == "<")
                        angle++;
                    else if (t == ">")
                        angle = std::max(angle - 1, 0);
                    else if (t == ">>")
                        angle = std::max(angle - 2, 0);
                    else if (angle == 0 &&
                             (t == "=" || t == "{" || t == "["))
                        break; // initializer or array bound
                    continue;
                }
                if (toks[k].kind != TokKind::Ident)
                    continue;
                if (t == "operator" ||
                    (angle == 0 && text(k + 1) == "(" &&
                     t != "alignas" && t != "decltype"))
                    return; // a member function
                lockable = lockable || isLockable(t);
                exempt = exempt || isExemptType(t);
                if (angle > 0)
                    continue;
                if (t == "const" || t == "constexpr" ||
                    t == "constinit")
                    exempt = true;
                else if (t != "static" && t != "mutable" &&
                         t != "inline" && t != "volatile")
                    name = k;
            }
            if (name)
                out.push_back(
                    {name, lockable, !lockable && !exempt && !annotated});
        };

        for (size_t open = 0; open < toks.size(); open++) {
            if (toks[open].kind != TokKind::Punct || text(open) != "{" ||
                scope.braceKind[open] != BraceKind::Class ||
                scope.match[open] < 0)
                continue;
            bool isEnum = false;
            for (size_t b = open; b > 0 && text(b - 1) != ";" &&
                                  text(b - 1) != "{" &&
                                  text(b - 1) != "}";
                 b--)
                isEnum = isEnum || text(b - 1) == "enum";
            if (isEnum)
                continue;

            std::vector<Field> fields;
            std::vector<size_t> stmt;
            size_t close = static_cast<size_t>(scope.match[open]);
            for (size_t i = open + 1; i < close;) {
                std::string_view t = text(i);
                if (toks[i].kind == TokKind::Preproc) {
                    i++;
                } else if (stmt.empty() &&
                           (t == "public" || t == "private" ||
                            t == "protected") &&
                           text(i + 1) == ":") {
                    i += 2;
                } else if (t == ";") {
                    field(stmt, fields);
                    stmt.clear();
                    i++;
                } else if (t == "(" || t == "[" || t == "{") {
                    if (scope.match[i] < 0)
                        break;
                    // A brace initializer belongs to the statement; a
                    // function body or nested type ends it unread.
                    if (t == "{" &&
                        scope.braceKind[i] != BraceKind::Init)
                        stmt.clear();
                    else
                        stmt.push_back(i);
                    i = static_cast<size_t>(scope.match[i]) + 1;
                } else {
                    stmt.push_back(i);
                    i++;
                }
            }

            auto mx = std::find_if(fields.begin(), fields.end(),
                                   [](const Field &f) { return f.lockable; });
            if (mx == fields.end())
                continue;
            for (const Field &f : fields)
                if (f.needsAnnotation)
                    report("memo-CONC-004", f.tok,
                           "field '" + toks[f.tok].text +
                               "' shares its class with mutex '" +
                               toks[mx->tok].text +
                               "' but is neither MEMO_GUARDED_BY nor "
                               "MEMO_UNGUARDED");
        }
    }

    void
    statsBypass()
    {
        if (!startsWith(opt.relPath, "src/obs/") &&
            !startsWith(opt.relPath, "src/exec/"))
            return;
        for (size_t i = 1; i + 1 < toks.size(); i++) {
            if (toks[i].kind == TokKind::Ident &&
                text(i) == "stats" &&
                (text(i - 1) == "." || text(i - 1) == "->") &&
                text(i + 1) == "(")
                report("memo-API-001", i,
                       "MemoStats polled via stats() from the "
                       "observability layer");
        }
    }

    void
    cliRegistration()
    {
        if (!startsWith(opt.relPath, "tools/") ||
            !endsWith(opt.relPath, ".cc") || opt.toolsReadme.empty())
            return;
        for (size_t i = 0; i + 1 < toks.size(); i++) {
            if (toks[i].kind != TokKind::Ident ||
                text(i) != "main" || text(i + 1) != "(" ||
                !scope.atNamespace[i])
                continue;
            size_t slash = opt.relPath.rfind('/');
            std::string stem = opt.relPath.substr(slash + 1);
            stem = stem.substr(0, stem.size() - 3); // drop ".cc"
            std::replace(stem.begin(), stem.end(), '_', '-');
            if (opt.toolsReadme.find(stem) == std::string::npos)
                report("memo-API-002", i,
                       "tool '" + stem +
                           "' has a main() but no section in "
                           "tools/README.md");
            return;
        }
    }
};

} // anonymous namespace

std::string
lintAsOverride(std::string_view source)
{
    std::string_view head = source.substr(
        0, std::min<size_t>(source.size(), 512));
    size_t p = head.find("LINT-AS:");
    if (p == std::string_view::npos)
        return "";
    size_t b = p + 8;
    while (b < head.size() && head[b] == ' ')
        b++;
    size_t e = b;
    while (e < head.size() && head[e] != '\n' && head[e] != ' ' &&
           head[e] != '\r')
        e++;
    return std::string(head.substr(b, e - b));
}

std::vector<Finding>
analyzeFile(std::string_view source, const AnalyzerOptions &opt)
{
    LexResult lr = lex(source);

    DeclInfo decls;
    if (!opt.companionHeader.empty())
        scanDecls(lex(opt.companionHeader).tokens, decls, nullptr,
                  opt.relPath);
    std::vector<Finding> fs;
    scanDecls(lr.tokens, decls, &fs, opt.relPath);

    ScopeInfo scope = buildScopes(lr.tokens);
    Pass pass{lr.tokens, scope, decls, opt, fs};
    auto spans = pass.unorderedIterationAndSpans();
    pass.wallClockAndRandomness();
    pass.floatAccumulation(std::move(spans));
    pass.rawThreads();
    pass.mutableGlobals();
    pass.mutableLocalStatics();
    pass.unannotatedSiblings();
    pass.statsBypass();
    pass.cliRegistration();

    std::map<int, Suppression> supp = buildSuppressions(lr.comments);
    std::vector<Finding> kept;
    for (Finding &f : fs)
        if (!isSuppressed(f, supp))
            kept.push_back(std::move(f));
    std::sort(kept.begin(), kept.end());
    return kept;
}

} // namespace memo::lint
