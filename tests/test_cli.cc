/**
 * @file
 * Tests for the shared command-line parser (sim/cli.hh): every value
 * form a tool accepts, and every malformed one it must refuse rather
 * than read as a default.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/machines.hh"
#include "sim/cli.hh"

namespace aosd
{
namespace
{

std::string
parseError(Cli &cli, const std::vector<std::string> &args)
{
    std::string error;
    EXPECT_FALSE(cli.parse(args, &error));
    return error;
}

TEST(CliTest, UnsignedAcceptsDecimalHexAndFull64Bits)
{
    std::uint64_t v = 0;
    EXPECT_EQ(Cli::parseUnsigned("42", 0, UINT64_MAX, v), "");
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(Cli::parseUnsigned("0x5eedf00d", 0, UINT64_MAX, v), "");
    EXPECT_EQ(v, 0x5eedf00du);
    EXPECT_EQ(
        Cli::parseUnsigned("18446744073709551615", 0, UINT64_MAX, v),
        "");
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_EQ(Cli::parseUnsigned("0xFFFFFFFFFFFFFFFF", 0, UINT64_MAX, v),
              "");
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(CliTest, UnsignedRejectsSignsJunkOverflowAndRange)
{
    for (const char *bad : {"", "-5", "+5", " 5", "5 ", "5x", "abc",
                            "0x", "0xg", "1.5", "1e3"}) {
        std::uint64_t v = 7;
        EXPECT_NE(Cli::parseUnsigned(bad, 0, UINT64_MAX, v), "") << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
    std::uint64_t v = 0;
    EXPECT_NE(
        Cli::parseUnsigned("18446744073709551616", 0, UINT64_MAX, v),
        "");
    EXPECT_NE(Cli::parseUnsigned("0x10000000000000000", 0, UINT64_MAX,
                                 v),
              "");
    EXPECT_NE(Cli::parseUnsigned("0", 1, 10, v), "");
    EXPECT_NE(Cli::parseUnsigned("11", 1, 10, v), "");
}

TEST(CliTest, RealRejectsNonFiniteJunkOverflowAndRange)
{
    double v = 0.0;
    EXPECT_EQ(Cli::parseReal("0.25", 0, 1, v), "");
    EXPECT_EQ(v, 0.25);
    EXPECT_EQ(Cli::parseReal("1e-3", 0, 1, v), "");
    EXPECT_EQ(v, 1e-3);
    for (const char *bad : {"", "nan", "inf", "-inf", "infinity",
                            "0x1p3", " 1", "1 ", "1.5x", "abc", ".",
                            "1e", "1e999", "-1", "2"}) {
        double w = 7.0;
        EXPECT_NE(Cli::parseReal(bad, 0, 1, w), "") << bad;
        EXPECT_EQ(w, 7.0) << bad;
    }
}

TEST(CliTest, ToleranceTakesAFractionOrAPercentage)
{
    double v = 0.0;
    EXPECT_EQ(Cli::parseTolerance("5%", v), "");
    EXPECT_DOUBLE_EQ(v, 0.05);
    EXPECT_EQ(Cli::parseTolerance("0.05", v), "");
    EXPECT_DOUBLE_EQ(v, 0.05);
    for (const char *bad : {"%", "5%%", "abc", "-1", "-5%", "nan%"})
        EXPECT_NE(Cli::parseTolerance(bad, v), "") << bad;
}

TEST(CliTest, ListsRejectEmptyElements)
{
    std::vector<std::string> parts;
    EXPECT_EQ(Cli::splitList("a,b,c", parts), "");
    EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "c"}));
    for (const char *bad : {"", ",", "a,", ",a", "a,,b"})
        EXPECT_NE(Cli::splitList(bad, parts), "") << bad;
}

TEST(CliTest, TypedFlagsStoreValuesAndNameBadOnes)
{
    unsigned reps = 16;
    double pct = 95.0;
    bool on = false;
    std::vector<MachineId> machines;
    Cli cli("tool");
    cli.option("--reps", "N", reps, "reps", 1, 64);
    cli.option("--pct", "P", pct, "pct", 0.0, 100.0);
    cli.flag("--on", on, "on");
    cli.option("--machines", "CSV", machines, "machines");

    std::string error;
    ASSERT_TRUE(cli.parse({"--reps", "32", "--pct", "99.5", "--on",
                           "--machines", "R3000,SPARC"},
                          &error))
        << error;
    EXPECT_EQ(reps, 32u);
    EXPECT_EQ(pct, 99.5);
    EXPECT_TRUE(on);
    EXPECT_EQ(machines, (std::vector<MachineId>{MachineId::R3000,
                                                MachineId::SPARC}));

    EXPECT_EQ(parseError(cli, {"--reps", "-1"}),
              "invalid value '-1' for --reps: expected an unsigned "
              "integer (decimal or 0x hex)");
    EXPECT_EQ(parseError(cli, {"--reps", "65"}),
              "invalid value '65' for --reps: out of range [1, 64]");
    EXPECT_EQ(parseError(cli, {"--pct", "xyz"}),
              "invalid value 'xyz' for --pct: expected a finite "
              "number");
    EXPECT_EQ(parseError(cli, {"--pct"}), "--pct needs a value (P)");
    EXPECT_EQ(parseError(cli, {"--bogus"}), "unknown flag '--bogus'");
    EXPECT_EQ(parseError(cli, {"stray"}),
              "unexpected argument 'stray'");
    EXPECT_NE(parseError(cli, {"--machines", "R3000,vax"})
                  .find("unknown machine 'vax'"),
              std::string::npos);
    EXPECT_EQ(reps, 32u);
}

TEST(CliTest, UnsignedDestinationBoundsItsRange)
{
    unsigned narrow = 0;
    Cli cli("tool");
    cli.option("--n", "N", narrow, "n");
    EXPECT_NE(parseError(cli, {"--n", "4294967296"}).find("out of range"),
              std::string::npos);
    std::string error;
    EXPECT_TRUE(cli.parse({"--n", "4294967295"}, &error));
    EXPECT_EQ(narrow, 4294967295u);
}

TEST(CliTest, OptionalValueAndPositionals)
{
    bool json = false;
    std::string path;
    std::string from;
    std::vector<std::string> bare;
    Cli cli("tool");
    cli.optionalValue("--json", "path", json, path, "json");
    cli.option("--from", "REF", from, "from");
    cli.positionals(bare);

    std::string error;
    ASSERT_TRUE(cli.parse({"a.json", "--json", "--from", "-2", "b.json"},
                          &error))
        << error;
    EXPECT_TRUE(json);
    EXPECT_EQ(path, "");
    EXPECT_EQ(from, "-2");
    EXPECT_EQ(bare, (std::vector<std::string>{"a.json", "b.json"}));

    ASSERT_TRUE(cli.parse({"--json", "out.json"}, &error)) << error;
    EXPECT_EQ(path, "out.json");
}

TEST(CliTest, HelpStopsParsingAndListsEveryFlag)
{
    unsigned jobs = 0;
    Cli cli("tool");
    cli.jobs(jobs);
    cli.noPredecode();
    std::string error;
    ASSERT_TRUE(cli.parse({"--help", "--bogus"}, &error));
    EXPECT_TRUE(cli.helpRequested());
    std::string usage = cli.usage();
    EXPECT_EQ(usage.rfind("usage: tool [options]\n", 0), 0u);
    EXPECT_NE(usage.find("--jobs N"), std::string::npos);
    EXPECT_NE(usage.find("--no-predecode"), std::string::npos);
}

TEST(CliTest, JobsZeroMeansAllCores)
{
    unsigned jobs = 0;
    Cli cli("tool");
    cli.jobs(jobs);
    const unsigned all = jobs;
    EXPECT_GE(all, 1u);
    std::string error;
    ASSERT_TRUE(cli.parse({"--jobs", "3"}, &error));
    EXPECT_EQ(jobs, 3u);
    ASSERT_TRUE(cli.parse({"--jobs", "0"}, &error));
    EXPECT_EQ(jobs, all);
    EXPECT_NE(parseError(cli, {"--jobs", "four"}), "");
}

} // namespace
} // namespace aosd
