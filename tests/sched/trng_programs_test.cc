/**
 * @file
 * Tests for the TRNG throughput schedule models: the paper's
 * qualitative results must hold (Fig 11 ordering, Table 2 ranking,
 * Fig 13 scaling behaviour).
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "sched/trng_programs.hh"

namespace quac::sched
{
namespace
{

const dram::TimingParams t2400 = dram::TimingParams::ddr4(2400);
const IterationProfile kPaperProfile{7, 128, 128};

QuacScheduleConfig
quacConfig(InitMethod init, uint32_t banks)
{
    QuacScheduleConfig cfg;
    cfg.init = init;
    cfg.banks = banks;
    cfg.profile = kPaperProfile;
    return cfg;
}

TEST(QuacSchedule, Figure11Ordering)
{
    double one_bank =
        simulateQuacTrng(t2400,
                         quacConfig(InitMethod::WriteBursts, 1))
            .throughputGbps();
    double bgp =
        simulateQuacTrng(t2400,
                         quacConfig(InitMethod::WriteBursts, 4))
            .throughputGbps();
    double rc_bgp =
        simulateQuacTrng(t2400, quacConfig(InitMethod::RowClone, 4))
            .throughputGbps();

    // Paper Fig 11: 0.49 < 0.75 << 3.44 Gb/s.
    EXPECT_GT(bgp, one_bank);
    EXPECT_GT(rc_bgp, 2.5 * bgp);
    EXPECT_NEAR(one_bank, 0.49, 0.25);
    EXPECT_NEAR(bgp, 0.75, 0.35);
    EXPECT_NEAR(rc_bgp, 3.44, 1.0);
}

TEST(QuacSchedule, RowCloneReducesInitCost)
{
    auto writes = simulateQuacTrng(
        t2400, quacConfig(InitMethod::WriteBursts, 4));
    auto rowclone = simulateQuacTrng(
        t2400, quacConfig(InitMethod::RowClone, 4));
    EXPECT_LT(rowclone.totalNs, writes.totalNs / 3.0);
    EXPECT_EQ(rowclone.bits, writes.bits);
}

TEST(QuacSchedule, ThroughputScalesWithSib)
{
    QuacScheduleConfig small = quacConfig(InitMethod::RowClone, 4);
    small.profile.sib = 4;
    QuacScheduleConfig large = quacConfig(InitMethod::RowClone, 4);
    large.profile.sib = 10;
    double ts = simulateQuacTrng(t2400, small).throughputGbps();
    double tl = simulateQuacTrng(t2400, large).throughputGbps();
    EXPECT_GT(tl, ts * 1.8);
}

TEST(QuacSchedule, QuasiLinearBandwidthScaling)
{
    // Paper Fig 13: RC+BGP throughput grows with transfer rate but
    // sub-linearly (fixed analog latencies).
    QuacScheduleConfig cfg = quacConfig(InitMethod::RowClone, 4);
    double at2400 = simulateQuacTrng(t2400, cfg).throughputGbps();
    double at12000 =
        simulateQuacTrng(dram::TimingParams::ddr4(12000), cfg)
            .throughputGbps();
    EXPECT_GT(at12000, 2.0 * at2400);
    EXPECT_LT(at12000, 5.0 * at2400);
}

TEST(QuacSchedule, LatencyIncludesShaCore)
{
    QuacScheduleConfig cfg = quacConfig(InitMethod::RowClone, 4);
    auto stats = simulateQuacTrng(t2400, cfg);
    EXPECT_GT(stats.latency256Ns, kShaCore.latencyNs());
    EXPECT_LT(stats.latency256Ns, 2000.0);
}

TEST(QuacSchedule, BusUtilizationSane)
{
    auto stats = simulateQuacTrng(
        t2400, quacConfig(InitMethod::RowClone, 4));
    EXPECT_GT(stats.busUtilization, 0.3);
    EXPECT_LE(stats.busUtilization, 1.0);
}

TEST(QuacSchedule, RejectsBadConfig)
{
    QuacScheduleConfig cfg = quacConfig(InitMethod::RowClone, 5);
    EXPECT_THROW(simulateQuacTrng(t2400, cfg), PanicError);
    cfg = quacConfig(InitMethod::RowClone, 4);
    cfg.iterations = kQuacWarmupIterations;
    EXPECT_THROW(simulateQuacTrng(t2400, cfg), PanicError);
}

DRangeScheduleConfig
drangeConfig(bool enhanced)
{
    DRangeScheduleConfig cfg;
    if (enhanced) {
        cfg.bitsPerAccess = 256.0 / 6.0;
        cfg.accessesPerNumber = 6;
        cfg.useSha = true;
    } else {
        cfg.bitsPerAccess = 4.0;
        cfg.accessesPerNumber = 64;
        cfg.useSha = false;
    }
    return cfg;
}

TalukderScheduleConfig
talukderConfig(bool enhanced)
{
    TalukderScheduleConfig cfg;
    if (enhanced) {
        cfg.bitsPerRow = 768.0;
        cfg.rowCloneInit = true;
    } else {
        cfg.bitsPerRow = 256.0 / 3.0;
        cfg.rowCloneInit = false;
    }
    return cfg;
}

TEST(BaselineSchedules, Table2Ranking)
{
    double quac =
        simulateQuacTrng(t2400, quacConfig(InitMethod::RowClone, 4))
            .throughputGbps();
    double drange_e =
        simulateDRange(t2400, drangeConfig(true)).throughputGbps();
    double drange_b =
        simulateDRange(t2400, drangeConfig(false)).throughputGbps();
    double taluk_e =
        simulateTalukder(t2400, talukderConfig(true)).throughputGbps();
    double taluk_b =
        simulateTalukder(t2400, talukderConfig(false)).throughputGbps();

    // Paper Table 2 / Section 7.4: QUAC beats every baseline; each
    // enhanced configuration beats its basic one by a wide margin.
    EXPECT_GT(quac, drange_e);
    EXPECT_GT(quac, taluk_e);
    EXPECT_GT(drange_e, 5.0 * drange_b);
    EXPECT_GT(taluk_e, 5.0 * taluk_b);
    EXPECT_GT(quac, 10.0 * drange_b);
    EXPECT_GT(quac, 10.0 * taluk_b);
}

TEST(BaselineSchedules, DRangeDoesNotScaleWithBandwidth)
{
    // Paper Fig 13: D-RaNGe is access-latency-bound.
    auto cfg = drangeConfig(true);
    double at2400 = simulateDRange(t2400, cfg).throughputGbps();
    double at12000 =
        simulateDRange(dram::TimingParams::ddr4(12000), cfg)
            .throughputGbps();
    EXPECT_LT(at12000, 1.25 * at2400);
}

TEST(BaselineSchedules, TalukderScalesWithBandwidth)
{
    auto cfg = talukderConfig(true);
    double at2400 = simulateTalukder(t2400, cfg).throughputGbps();
    double at12000 =
        simulateTalukder(dram::TimingParams::ddr4(12000), cfg)
            .throughputGbps();
    EXPECT_GT(at12000, 1.8 * at2400);
}

TEST(BaselineSchedules, QuacBeatsTalukderMoreAtHighRates)
{
    // Paper: 2.24x at 2400 MT/s; still >= ~2x at 12 GT/s.
    auto quac_cfg = quacConfig(InitMethod::RowClone, 4);
    auto taluk_cfg = talukderConfig(true);
    for (uint32_t rate : {2400u, 12000u}) {
        auto timing = dram::TimingParams::ddr4(rate);
        double quac =
            simulateQuacTrng(timing, quac_cfg).throughputGbps();
        double taluk =
            simulateTalukder(timing, taluk_cfg).throughputGbps();
        EXPECT_GT(quac / taluk, 1.8) << "rate " << rate;
        EXPECT_LT(quac / taluk, 4.0) << "rate " << rate;
    }
}

TEST(BaselineSchedules, LatenciesPositiveAndOrdered)
{
    auto quac = simulateQuacTrng(
        t2400, quacConfig(InitMethod::RowClone, 4));
    auto drange = simulateDRange(t2400, drangeConfig(true));
    EXPECT_GT(drange.latency256Ns, 0.0);
    EXPECT_GT(quac.latency256Ns, drange.latency256Ns)
        << "D-RaNGe produces its first number faster (paper Table 2)";
}

TEST(QuacSchedule, NativeQuacCommandHelps)
{
    // Paper Section 4.3: a native QUAC command (one slot instead of
    // the ACT-PRE-ACT sequence) can only help, and most of the
    // benefit shows in the 256-bit latency rather than steady-state
    // throughput (reads dominate the pipeline).
    QuacScheduleConfig cfg = quacConfig(InitMethod::RowClone, 4);
    auto legacy = simulateQuacTrng(t2400, cfg);
    cfg.nativeQuacCommand = true;
    auto native = simulateQuacTrng(t2400, cfg);
    EXPECT_GE(native.throughputGbps(),
              legacy.throughputGbps() * 0.999);
    EXPECT_LE(native.latency256Ns, legacy.latency256Ns + 1e-9);
}

TEST(ShaModel, PaperConstants)
{
    ShaCoreModel sha;
    EXPECT_NEAR(sha.latencyNs(), 65.0 / 5.15, 1e-9);
    EXPECT_NEAR(sha.throughputGbps, 19.7, 1e-9);

    IntegrationCostModel cost;
    // Paper Section 9: 192 KB is 0.002% of an 8 GB module.
    EXPECT_NEAR(cost.reservedFraction(), 0.0000229, 1e-6);
    // Storage on the order of the paper's 1316 bits.
    EXPECT_GT(cost.storageBits(), 1000u);
    EXPECT_LT(cost.storageBits(), 1600u);
}

} // anonymous namespace
} // namespace quac::sched
