/**
 * @file
 * Tests that drive the performa_campaign binary end to end, on a copy
 * of a committed behaviour DB so nothing is measured.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/phase1.hh"

namespace {

/** Run @p cmd through the shell; @return its stdout and exit status. */
std::pair<std::string, int>
runCommand(const std::string &cmd)
{
    std::string out;
    FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return {out, -1};
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    return {out, ::pclose(p)};
}

} // namespace

TEST(CampaignCli, SloRankingFlipsCompareValuesThatReadDifferent)
{
    // Every point of the flash-crowd SLO grid is in the committed DB,
    // so the CLI loads the copy, measures nothing and prints the
    // SLO report at once.
    const std::string base = ::testing::TempDir() + "/cli_flip_report";
    std::filesystem::copy_file(
        std::string(PERFORMA_SOURCE_DIR) +
            "/results/phase1_behaviors.csv.pflashcrowd.slop99_500ms",
        base + ".pflashcrowd.slop99_500ms",
        std::filesystem::copy_options::overwrite_existing);
    auto [out, status] = runCommand(
        std::string(PERFORMA_CAMPAIGN_CLI) +
        " --quiet --profile flashcrowd --slo p99=500ms --cache '" + base +
        "'");
    ASSERT_EQ(status, 0) << out;
    EXPECT_NE(out.find("0 measured, 55 cached"), std::string::npos)
        << out;
    EXPECT_NE(out.find("performability, throughput vs SLO-goodput"),
              std::string::npos)
        << out;

    // A flip is one version strictly ahead on one metric and strictly
    // behind on the other, so each printed "(a < b)" or "(a > b)"
    // holds for the printed values, which therefore read different.
    const std::regex cmp(R"(\(([^ ()]+) ([<>]) ([^ ()]+)\))");
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
        if (line.find("ranking flip") == std::string::npos)
            continue;
        for (std::sregex_iterator m(line.begin(), line.end(), cmp), end;
             m != end; ++m) {
            const std::string a = (*m)[1], op = (*m)[2], b = (*m)[3];
            EXPECT_NE(a, b) << line;
            if (op == "<") {
                EXPECT_LT(std::stod(a), std::stod(b)) << line;
            } else {
                EXPECT_GT(std::stod(a), std::stod(b)) << line;
            }
        }
    }
}

TEST(CampaignCli, NetStatsPrintOnePortLinePerNode)
{
    // One freshly measured point at a quarter of the paper's load, so
    // the run stays short; every node talks, so every port sends and
    // receives.
    const std::string base = ::testing::TempDir() + "/cli_net_stats.csv";
    auto [out, status] = runCommand(
        std::string(PERFORMA_CAMPAIGN_CLI) +
        " --quiet --fresh --net-stats --versions 2 --faults 6"
        " --scale 0.25 --cache '" +
        base + "'");
    ASSERT_EQ(status, 0) << out;
    EXPECT_NE(out.find("1 measured, 0 cached, 0 failed"),
              std::string::npos)
        << out;

    const std::regex port(
        R"(^  port (\d+): sent (\d+) \(\d+ B\) rcvd (\d+) \(\d+ B\) )");
    std::size_t headers = 0;
    std::vector<int> ports;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("net-stats ", 0) == 0) {
            EXPECT_EQ(line, "net-stats VIA-PRESS-0 x app-crash:");
            ++headers;
        }
        std::smatch m;
        if (std::regex_search(line, m, port)) {
            ports.push_back(std::stoi(m[1]));
            EXPECT_GT(std::stoull(m[2]), 0u) << line;
            EXPECT_GT(std::stoull(m[3]), 0u) << line;
        }
    }
    EXPECT_EQ(headers, 1u) << out;
    EXPECT_EQ(ports, (std::vector<int>{0, 1, 2, 3})) << out;
    // The stats come out before the campaign's summary line.
    EXPECT_LT(out.find("net-stats "), out.find("1 measured"));
}

TEST(CampaignCli, ListPrintsOnlyTheSelectedSubset)
{
    auto [out, status] = runCommand(std::string(PERFORMA_CAMPAIGN_CLI) +
                                    " --list --versions 0 --faults 6");
    ASSERT_EQ(status, 0) << out;
    using namespace performa;
    char seed[17];
    std::snprintf(seed, sizeof seed, "%016llx",
                  static_cast<unsigned long long>(
                      campaign::phase1Seed(42, press::Version::TcpPress)));
    EXPECT_EQ(out, "TCP-PRESS     app-crash       nodes=4 scale=1 seed=" +
                       std::string(seed) + "\n");
}
