/**
 * @file
 * Checked parsing of outside input, shared by the tools' flags and
 * the library's environment variables (MEMO_JOBS,
 * MEMO_TRACE_CACHE_MB): a bad value is an error that names its flag
 * or variable, never a run with a guessed value.
 */

#ifndef MEMO_CORE_CLI_ARGS_HH
#define MEMO_CORE_CLI_ARGS_HH

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace memo::cli
{

namespace detail
{

/** @p value as a plain decimal that fits T, or nullopt. */
template <typename T>
std::optional<T>
decimal(const std::string &value)
{
    uint64_t n = 0;
    const char *end = value.data() + value.size();
    auto [p, ec] = std::from_chars(value.data(), end, n);
    if (ec != std::errc() || p != end ||
        n > static_cast<uint64_t>(std::numeric_limits<T>::max()))
        return std::nullopt;
    return static_cast<T>(n);
}

} // namespace detail

/**
 * Parse @p value, the value of @p flag, as a positive count that fits
 * T. Anything else — a sign, trailing characters, zero, overflow —
 * throws naming the flag.
 */
template <typename T>
T
parseCount(const std::string &flag, const std::string &value)
{
    std::optional<T> n = detail::decimal<T>(value);
    if (!n || *n == 0)
        throw std::runtime_error(flag + ": '" + value +
                                 "' is not a positive count");
    return *n;
}

/**
 * The environment variable @p name parsed as parseCount() parses a
 * flag, or nullopt when it is unset or empty. Any other value throws
 * naming the variable.
 */
template <typename T>
std::optional<T>
envCount(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return std::nullopt;
    return parseCount<T>(name, value);
}

/**
 * Parse @p value, the value of @p flag, as an unsigned decimal that
 * fits T; unlike parseCount it accepts zero. A sign, an empty value,
 * trailing characters or overflow throws naming the flag.
 */
template <typename T>
T
parseUnsigned(const std::string &flag, const std::string &value)
{
    std::optional<T> n = detail::decimal<T>(value);
    if (!n)
        throw std::runtime_error(flag + ": '" + value +
                                 "' is not an unsigned number");
    return *n;
}

/**
 * Map @p value, the value of @p flag, to the enumerator of its exact
 * spelling in @p choices. Any other spelling throws naming the flag
 * and the accepted spellings.
 */
template <typename E>
E
parseChoice(const std::string &flag, const std::string &value,
            std::initializer_list<std::pair<const char *, E>> choices)
{
    std::string known;
    for (const auto &[name, e] : choices) {
        if (value == name)
            return e;
        if (!known.empty())
            known += '|';
        known += name;
    }
    throw std::runtime_error(flag + ": unknown value '" + value +
                             "' (expected " + known + ")");
}

} // namespace memo::cli

#endif // MEMO_CORE_CLI_ARGS_HH
