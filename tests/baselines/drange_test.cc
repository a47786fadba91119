/**
 * @file
 * Tests for the D-RaNGe baseline TRNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "baselines/drange.hh"
#include "common/error.hh"
#include "nist/sts.hh"
#include "softmc/host.hh"

namespace quac::baselines
{
namespace
{

dram::ModuleSpec
testSpec(uint64_t seed = 33)
{
    dram::ModuleSpec spec;
    spec.geometry = dram::Geometry::testScale();
    spec.seed = seed;
    return spec;
}

DRangeConfig
config(bool enhanced)
{
    DRangeConfig cfg;
    cfg.enhanced = enhanced;
    cfg.banks = {0, 1};
    // Reduced geometry has ~8x narrower rows; scale the block target.
    cfg.sibEntropyTarget = 64.0;
    return cfg;
}

TEST(DRange, SetupFindsBestBlocks)
{
    dram::DramModule module(testSpec());
    DRangeTrng trng(module, config(true));
    trng.setup();
    ASSERT_EQ(trng.plans().size(), 2u);
    for (const auto &plan : trng.plans()) {
        EXPECT_LT(plan.bestColumn,
                  module.geometry().cacheBlocksPerRow());
        EXPECT_GT(plan.blockEntropy, 0.0);
        EXPECT_EQ(plan.blockProbs.size(),
                  module.geometry().cacheBlockBits);
    }
    EXPECT_GT(trng.avgBlockEntropy(), 1.0);
    EXPECT_GE(trng.accessesPerNumber(), 1u);
}

TEST(DRange, TrngCellsAreMetastable)
{
    dram::DramModule module(testSpec());
    DRangeTrng trng(module, config(false));
    trng.setup();
    for (const auto &plan : trng.plans()) {
        for (uint32_t cell : plan.trngCells) {
            float p = plan.blockProbs[cell];
            EXPECT_GE(p, 0.4f);
            EXPECT_LE(p, 0.6f);
        }
    }
}

TEST(DRange, EnhancedGeneratesWhitenedBytes)
{
    dram::DramModule module(testSpec());
    DRangeTrng trng(module, config(true));
    auto bytes = trng.generate(512);
    EXPECT_EQ(bytes.size(), 512u);
    std::set<uint8_t> distinct(bytes.begin(), bytes.end());
    EXPECT_GT(distinct.size(), 32u);
}

TEST(DRange, EnhancedOutputPassesBasicNist)
{
    dram::DramModule module(testSpec());
    DRangeTrng trng(module, config(true));
    Bitstream bits = trng.generateBits(1u << 15);
    EXPECT_TRUE(nist::monobit(bits).passed());
    EXPECT_TRUE(nist::runs(bits).passed());
}

TEST(DRange, BasicHarvestsRawCells)
{
    dram::DramModule module(testSpec());
    DRangeTrng trng(module, config(false));
    trng.setup();
    if (trng.avgTrngCells() < 0.5)
        GTEST_SKIP() << "no TRNG cells in this reduced module";
    auto bytes = trng.generate(64);
    EXPECT_EQ(bytes.size(), 64u);
}

TEST(DRange, CharacterizationMatchesCommandPath)
{
    // The plan's probabilities must match empirical frequencies from
    // the real reduced-tRCD command sequence.
    dram::DramModule module(testSpec());
    DRangeTrng trng(module, config(true));
    trng.setup();
    const DRangeBankPlan &plan = trng.plans()[0];

    // Find a metastable bit to compare frequencies on.
    uint32_t target = 0;
    float best = 1.0f;
    for (uint32_t b = 0; b < plan.blockProbs.size(); ++b) {
        float dist = std::abs(plan.blockProbs[b] - 0.5f);
        if (dist < best) {
            best = dist;
            target = b;
        }
    }
    if (best > 0.3f)
        GTEST_SKIP() << "no metastable bit in the best block";

    softmc::SoftMcHost host(module);
    int ones = 0;
    const int iters = 400;
    for (int i = 0; i < iters; ++i) {
        module.bank(plan.bank).pokeRowFill(plan.row, false);
        auto block = host.readWithReducedTrcd(plan.bank, plan.row,
                                              plan.bestColumn);
        ones += (block[target / 64] >> (target % 64)) & 1;
    }
    double freq = static_cast<double>(ones) / iters;
    EXPECT_NEAR(freq, plan.blockProbs[target], 0.1);
}

TEST(DRange, DeterministicPerSeed)
{
    dram::DramModule module_a(testSpec());
    dram::DramModule module_b(testSpec());
    DRangeTrng a(module_a, config(true));
    DRangeTrng b(module_b, config(true));
    EXPECT_EQ(a.generate(128), b.generate(128));
}

TEST(DRange, RejectsBadConfig)
{
    dram::DramModule module(testSpec());
    DRangeConfig cfg = config(true);
    cfg.banks = {};
    EXPECT_THROW(DRangeTrng(module, cfg), FatalError);
    cfg = config(true);
    cfg.banks = {module.geometry().banks};
    EXPECT_THROW(DRangeTrng(module, cfg), FatalError);
}

} // anonymous namespace
} // namespace quac::baselines
