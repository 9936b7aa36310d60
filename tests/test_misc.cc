/**
 * @file
 * Coverage for the small public helpers: version metadata, substrate
 * config factories, and the marker log.
 */

#include <gtest/gtest.h>

#include "press/markers.hh"
#include "press/config.hh"

using namespace performa;
using namespace performa::sim;

TEST(PressConfig, VersionNamesMatchThePaper)
{
    EXPECT_STREQ(press::versionName(press::Version::TcpPress),
                 "TCP-PRESS");
    EXPECT_STREQ(press::versionName(press::Version::TcpPressHb),
                 "TCP-PRESS-HB");
    EXPECT_STREQ(press::versionName(press::Version::ViaPress0),
                 "VIA-PRESS-0");
    EXPECT_STREQ(press::versionName(press::Version::ViaPress3),
                 "VIA-PRESS-3");
    EXPECT_STREQ(press::versionName(press::Version::ViaPress5),
                 "VIA-PRESS-5");
}

TEST(PressConfig, VersionPredicates)
{
    EXPECT_FALSE(press::isVia(press::Version::TcpPress));
    EXPECT_FALSE(press::isVia(press::Version::TcpPressHb));
    EXPECT_TRUE(press::isVia(press::Version::ViaPress0));
    EXPECT_TRUE(press::isVia(press::Version::ViaPress5));

    EXPECT_TRUE(press::usesHeartbeats(press::Version::TcpPressHb));
    EXPECT_FALSE(press::usesHeartbeats(press::Version::TcpPress));
    EXPECT_FALSE(press::usesHeartbeats(press::Version::ViaPress3));

    EXPECT_TRUE(press::usesDynamicPinning(press::Version::ViaPress5));
    EXPECT_FALSE(press::usesDynamicPinning(press::Version::ViaPress3));
}

TEST(PressConfig, PaperThroughputsOrdered)
{
    double prev = 0;
    for (press::Version v : press::allVersions) {
        double t = press::paperThroughput(v);
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_DOUBLE_EQ(press::paperThroughput(press::Version::ViaPress5),
                     7058.0);
}

TEST(PressConfig, SubstrateFactoriesMatchVersions)
{
    auto tcp = press::tcpConfigFor(press::Version::TcpPress);
    EXPECT_GT(tcp.costs.sendFixed, 0u);
    EXPECT_EQ(tcp.abortTimeout, minutes(15));

    auto v0 = press::viaConfigFor(press::Version::ViaPress0);
    EXPECT_EQ(v0.mode, proto::ViaMode::SendRecv);
    auto v3 = press::viaConfigFor(press::Version::ViaPress3);
    EXPECT_EQ(v3.mode, proto::ViaMode::RemoteWrite);
    auto v5 = press::viaConfigFor(press::Version::ViaPress5);
    EXPECT_EQ(v5.mode, proto::ViaMode::RemoteWriteZeroCopy);
    // Zero copy must actually be cheaper per KB.
    EXPECT_LT(v5.costs.sendPerKb, v3.costs.sendPerKb);
    // Polled modes skip the receive interrupt.
    EXPECT_LT(v3.costs.recvFixed, v0.costs.recvFixed);
}

TEST(PressConfigDeath, FactoriesRejectWrongFamily)
{
    EXPECT_DEATH((void)press::tcpConfigFor(press::Version::ViaPress0),
                 "VIA");
    EXPECT_DEATH((void)press::viaConfigFor(press::Version::TcpPress),
                 "TCP");
}

TEST(MarkerLog, QueriesWork)
{
    press::MarkerLog log;
    log.add(sec(10), press::MarkerKind::Inject);
    log.add(sec(20), press::MarkerKind::Exclude, 0, 3);
    log.add(sec(25), press::MarkerKind::Exclude, 1, 3);
    log.add(sec(90), press::MarkerKind::Recover);

    auto first = log.firstAfter(press::MarkerKind::Exclude, sec(15));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->t, sec(20));
    EXPECT_EQ(first->node, 0u);
    EXPECT_EQ(first->other, 3u);

    EXPECT_FALSE(
        log.firstAfter(press::MarkerKind::FailFast, 0).has_value());

    auto last = log.last(press::MarkerKind::Exclude);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->t, sec(25));

    EXPECT_EQ(log.count(press::MarkerKind::Exclude), 2u);
    EXPECT_EQ(log.count(press::MarkerKind::Exclude, sec(21)), 1u);
    EXPECT_EQ(log.count(press::MarkerKind::Exclude, 0, sec(21)), 1u);
}

TEST(MarkerLog, NamesAreStable)
{
    EXPECT_STREQ(press::markerName(press::MarkerKind::Inject), "inject");
    EXPECT_STREQ(press::markerName(press::MarkerKind::Started),
                 "started");
}
