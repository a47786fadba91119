/**
 * @file
 * Cross-TRNG integration tests: the paper's comparative claims must
 * hold when all three generators run on the *same* simulated module
 * (Section 7.4), and the schedule models must agree with the
 * characterized substrates.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/drange.hh"
#include "baselines/talukder.hh"
#include "core/trng.hh"
#include "dram/catalog.hh"
#include "sched/trng_programs.hh"
#include "sysperf/channel_sim.hh"

namespace quac
{
namespace
{

class ComparisonTest : public ::testing::Test
{
  protected:
    ComparisonTest()
        : module(dram::specFor(dram::paperCatalog()[12],
                               dram::Geometry::paperScale()))
    {
    }

    dram::DramModule module;
};

TEST_F(ComparisonTest, EntropyPerRowOrdering)
{
    // QUAC harvests more entropy from one 64 Kbit read than the
    // tRP-failure substrate (the paper's core advantage).
    core::QuacTrngConfig qcfg;
    qcfg.characterizeStride = 128;
    core::QuacTrng quac(module, qcfg);
    quac.setup();
    double quac_entropy = quac.plans()[0].segmentEntropy;

    baselines::TalukderTrng taluk(module);
    taluk.setup();
    double taluk_entropy = taluk.avgRowEntropy();

    EXPECT_GT(quac_entropy, 1.3 * taluk_entropy);

    // And Talukder's whole-row harvest beats D-RaNGe's single-block
    // harvest in absolute entropy.
    baselines::DRangeTrng drange(module);
    drange.setup();
    EXPECT_GT(taluk_entropy, drange.avgBlockEntropy());
}

TEST_F(ComparisonTest, SubstrateEntropyInPaperBands)
{
    baselines::DRangeTrng drange(module);
    drange.setup();
    // Paper: 46.55 bits per best cache block.
    EXPECT_GT(drange.avgBlockEntropy(), 15.0);
    EXPECT_LT(drange.avgBlockEntropy(), 120.0);

    baselines::TalukderTrng taluk(module);
    taluk.setup();
    // Paper: 1023.64 bits per best row.
    EXPECT_GT(taluk.avgRowEntropy(), 400.0);
    EXPECT_LT(taluk.avgRowEntropy(), 2500.0);
    // Paper: ~3 SHA input blocks per row.
    EXPECT_GE(taluk.sibPerRow(), 2u);
    EXPECT_LE(taluk.sibPerRow(), 6u);
}

TEST_F(ComparisonTest, EndToEndThroughputModelAgreesWithPaperShape)
{
    // Wire the characterized substrates into the schedule models and
    // check the Table 2 ranking end to end on this module.
    auto timing = dram::TimingParams::ddr4(2400);

    core::QuacTrngConfig qcfg;
    qcfg.characterizeStride = 128;
    core::QuacTrng quac(module, qcfg);
    quac.setup();
    sched::QuacScheduleConfig quac_sched;
    quac_sched.banks = 4;
    quac_sched.init = sched::InitMethod::RowClone;
    quac_sched.profile.sib =
        static_cast<uint32_t>(quac.plans()[0].ranges.size());
    quac_sched.profile.columnsRead =
        quac.plans()[0].ranges.back().endColumn;
    quac_sched.profile.columnsPerRow = 128;
    double quac_gbps =
        sched::simulateQuacTrng(timing, quac_sched).throughputGbps();

    baselines::DRangeTrng drange(module);
    drange.setup();
    sched::DRangeScheduleConfig drange_sched;
    drange_sched.accessesPerNumber = drange.accessesPerNumber();
    drange_sched.bitsPerAccess =
        256.0 / drange_sched.accessesPerNumber;
    drange_sched.useSha = true;
    double drange_gbps =
        sched::simulateDRange(timing, drange_sched).throughputGbps();

    baselines::TalukderTrng taluk(module);
    taluk.setup();
    sched::TalukderScheduleConfig taluk_sched;
    taluk_sched.bitsPerRow = 256.0 * taluk.sibPerRow();
    taluk_sched.columnsRead = taluk.columnsReadPerRow();
    double taluk_gbps =
        sched::simulateTalukder(timing, taluk_sched).throughputGbps();

    EXPECT_GT(quac_gbps, drange_gbps);
    EXPECT_GT(quac_gbps, taluk_gbps);
    EXPECT_GT(quac_gbps, 2.0) << "per-channel Gb/s";
    EXPECT_LT(quac_gbps, 8.0);
}

TEST_F(ComparisonTest, SystemStudyUsesScheduledIteration)
{
    // Fig 12 end to end: schedule-derived iteration cost plugged
    // into the idle-cycle injection study.
    auto timing = dram::TimingParams::ddr4(2400);
    sched::QuacScheduleConfig cfg;
    cfg.banks = 4;
    cfg.init = sched::InitMethod::RowClone;
    cfg.profile = {7, 128, 128};
    auto stats = sched::simulateQuacTrng(timing, cfg);
    double iters = static_cast<double>(cfg.iterations -
                                       sched::kQuacWarmupIterations);

    auto results = sysperf::runSystemStudy(
        stats.totalNs / iters, stats.bits / iters, 4, 1.0e6, 7);
    ASSERT_EQ(results.size(), 23u);
    double busy_peak = (stats.bits / iters) / (stats.totalNs / iters);
    for (const auto &result : results) {
        EXPECT_GE(result.throughputGbps, 0.0);
        EXPECT_LE(result.throughputGbps, 4.0 * busy_peak + 1e-9)
            << result.name;
    }
}

TEST_F(ComparisonTest, AllThreeGeneratorsShareTheModuleSafely)
{
    // Running all three TRNGs against one module must not corrupt
    // each other's reserved rows (they use different banks/rows).
    core::QuacTrngConfig qcfg;
    qcfg.characterizeStride = 128;
    qcfg.banks = {0, 1};
    core::QuacTrng quac(module, qcfg);

    baselines::DRangeConfig dcfg;
    dcfg.banks = {2};
    baselines::DRangeTrng drange(module, dcfg);

    baselines::TalukderConfig tcfg;
    tcfg.banks = {3};
    baselines::TalukderTrng taluk(module, tcfg);

    auto quac_bytes = quac.generate(128);
    auto drange_bytes = drange.generate(128);
    auto taluk_bytes = taluk.generate(128);
    auto quac_again = quac.generate(128);

    EXPECT_NE(quac_bytes, drange_bytes);
    EXPECT_NE(quac_bytes, taluk_bytes);
    EXPECT_NE(quac_bytes, quac_again);
}

} // anonymous namespace
} // namespace quac
