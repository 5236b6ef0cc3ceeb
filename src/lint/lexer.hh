/**
 * @file
 * A minimal C++ lexer for the memo-lint static-analysis pass.
 *
 * This is not a conforming C++ tokenizer — it is the smallest lexer
 * that lets the rule passes in analyzer.cc reason about real code:
 * identifiers, numbers, string/char literals (including raw strings),
 * multi-character operators, comments (retained separately, so NOLINT
 * suppressions can be matched to lines), and preprocessor lines
 * (retained as opaque single tokens so directives never confuse the
 * rule passes). Everything is positioned by 1-based line and column.
 */

#ifndef MEMO_LINT_LEXER_HH
#define MEMO_LINT_LEXER_HH

#include <string>
#include <string_view>
#include <vector>

namespace memo::lint
{

enum class TokKind
{
    Ident,   //!< identifier or keyword
    Number,  //!< numeric literal (integer or floating)
    String,  //!< string literal, including raw strings
    CharLit, //!< character literal
    Punct,   //!< operator / punctuation (multi-char ops are one token)
    Preproc, //!< one whole preprocessor line (text = directive name)
};

/** One token of a translation unit. */
struct Token
{
    TokKind kind;
    std::string text;
    int line; //!< 1-based line of the first character
    int col;  //!< 1-based column of the first character
};

/** One comment, retained for NOLINT / EXPECT annotation matching. */
struct Comment
{
    std::string text; //!< body without the // or making slashes
    int line;         //!< 1-based line the comment starts on
    int endLine;      //!< last line the comment touches (block comments)
};

/** The lexed view of one file: code tokens plus comments. */
struct LexResult
{
    std::vector<Token> tokens;
    std::vector<Comment> comments;
};

/** Lex @p source. Never throws; unrecognized bytes become Punct. */
LexResult lex(std::string_view source);

/**
 * Test-only fault injection: when enabled, lex() deliberately stops
 * counting newlines inside block comments, so every token after a
 * multi-line block comment carries a wrong line number. The seeded
 * lexer fuzz in tests/test_lint.cc turns this on to prove its
 * invariants have teeth. Never enable outside tests.
 */
void setLexerFaultInjection(bool enabled);

} // namespace memo::lint

#endif // MEMO_LINT_LEXER_HH
