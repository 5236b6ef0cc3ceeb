/**
 * @file
 * Tests for the tools' checked argument parsing (core/cli_args.hh):
 * counts are positive decimals that fit their type, unsigned numbers
 * may also be zero, choices are exact spellings, and every refusal
 * names the flag and the value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/cli_args.hh"

namespace memo::cli
{
namespace
{

enum class Policy
{
    Lru,
    Random,
    Plru
};

Policy
parsePolicy(const std::string &value)
{
    return parseChoice<Policy>("--repl", value,
                               {{"LRU", Policy::Lru},
                                {"RANDOM", Policy::Random},
                                {"PLRU", Policy::Plru}});
}

/** The message parseCount<T> throws for @p value, or "" if none. */
template <typename T>
std::string
countError(const std::string &value)
{
    try {
        parseCount<T>("--n", value);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(CliArgs, CountAcceptsPositiveDecimals)
{
    EXPECT_EQ(parseCount<int>("--crop", "1"), 1);
    EXPECT_EQ(parseCount<int>("--crop", "48"), 48);
    EXPECT_EQ(parseCount<unsigned>("--entries", "0032"), 32u);
    EXPECT_EQ(parseCount<uint64_t>("--sample", "18446744073709551615"),
              std::numeric_limits<uint64_t>::max());
}

TEST(CliArgs, CountRejectsZero)
{
    EXPECT_EQ(countError<unsigned>("0"), "--n: '0' is not a positive count");
    EXPECT_NE(countError<unsigned>("000"), "");
}

TEST(CliArgs, CountRejectsSignsSpacesAndTrailingCharacters)
{
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "32x", "abc",
                            "0x10", "1e3", "4.0"})
        EXPECT_EQ(countError<unsigned>(bad),
                  std::string("--n: '") + bad + "' is not a positive count")
            << "'" << bad << "'";
}

TEST(CliArgs, CountRejectsValuesOverTheTargetType)
{
    EXPECT_EQ(parseCount<uint16_t>("--n", "65535"), 65535u);
    EXPECT_NE(countError<uint16_t>("65536"), "");
    EXPECT_EQ(parseCount<int>("--n", "2147483647"),
              std::numeric_limits<int>::max());
    EXPECT_NE(countError<int>("2147483648"), "");
    EXPECT_NE(countError<unsigned>("4294967296"), "");
    // Past 64 bits from_chars itself overflows.
    EXPECT_NE(countError<uint64_t>("18446744073709551616"), "");
}

TEST(CliArgs, CountErrorNamesTheFlagAndTheValue)
{
    try {
        parseCount<unsigned>("--entries", "32x");
        FAIL() << "32x parsed as a count";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "--entries: '32x' is not a positive count");
    }
}

TEST(CliArgs, UnsignedAcceptsZeroAndTheFullRange)
{
    EXPECT_EQ(parseUnsigned<uint64_t>("--seed", "0"), 0u);
    EXPECT_EQ(parseUnsigned<uint64_t>("--seed", "7"), 7u);
    EXPECT_EQ(parseUnsigned<uint64_t>("--seed", "18446744073709551615"),
              std::numeric_limits<uint64_t>::max());
}

TEST(CliArgs, UnsignedRejectsSignsEmptyAndOverflow)
{
    for (const char *bad : {"", "-1", "+1", " 1", "1x", "0x10",
                            "18446744073709551616"}) {
        try {
            parseUnsigned<uint64_t>("--seed", bad);
            ADD_FAILURE() << "'" << bad << "' parsed as unsigned";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(e.what(), std::string("--seed: '") + bad +
                                    "' is not an unsigned number");
        }
    }
    EXPECT_THROW(parseUnsigned<uint16_t>("--n", "65536"),
                 std::runtime_error);
}

TEST(CliArgs, ChoiceMapsExactSpellings)
{
    EXPECT_EQ(parsePolicy("LRU"), Policy::Lru);
    EXPECT_EQ(parsePolicy("RANDOM"), Policy::Random);
    EXPECT_EQ(parsePolicy("PLRU"), Policy::Plru);
    // Case, prefixes and padding are other spellings.
    for (const char *bad : {"lru", "LR", "LRU ", "", "PLRUX"})
        EXPECT_THROW(parsePolicy(bad), std::runtime_error) << bad;
}

TEST(CliArgs, ChoiceErrorListsTheAcceptedSpellings)
{
    try {
        parsePolicy("FIFO");
        FAIL() << "FIFO parsed as a policy";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(),
                     "--repl: unknown value 'FIFO' (expected "
                     "LRU|RANDOM|PLRU)");
    }
}

} // anonymous namespace
} // namespace memo::cli
