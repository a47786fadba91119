/**
 * @file
 * Tests for the DramModule front-end.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "dram/module.hh"

namespace quac::dram
{
namespace
{

ModuleSpec
testSpec()
{
    ModuleSpec spec;
    spec.geometry = Geometry::testScale();
    spec.seed = 5;
    return spec;
}

TEST(DramModule, ConstructsBanks)
{
    DramModule module(testSpec());
    EXPECT_EQ(module.bankCount(), Geometry::testScale().banks);
    EXPECT_NO_THROW(module.bank(0));
    EXPECT_THROW(module.bank(module.bankCount()), FatalError);
}

TEST(DramModule, RejectsSegmentsStraddlingSubarrays)
{
    // A segment's rows must share one SA stripe: the banks cache SA
    // offsets per segment.
    ModuleSpec spec = testSpec();
    spec.geometry.rowsPerSubarray = 62;
    EXPECT_THROW(DramModule{spec}, FatalError);
}

TEST(DramModule, CommandRoundTrip)
{
    DramModule module(testSpec());
    module.bank(1).pokeRowFill(3, true);
    module.act(1, 3, 0.0);
    auto block = module.readBlock(1, 0, 13.32);
    EXPECT_EQ(block[0], ~uint64_t{0});
    module.pre(1, 45.0);
}

TEST(DramModule, IssueDispatches)
{
    DramModule module(testSpec());
    module.issue({CommandType::ACT, 0, 7, 0, 0.0});
    module.issue({CommandType::RD, 0, 0, 0, 13.32});
    module.issue({CommandType::PRE, 0, 0, 0, 45.0});
    EXPECT_THROW(module.issue({CommandType::WR, 0, 0, 0, 50.0}),
                 FatalError);
}

TEST(DramModule, TemperatureControl)
{
    DramModule module(testSpec());
    EXPECT_DOUBLE_EQ(module.temperature(), 50.0);
    module.setTemperature(85.0);
    EXPECT_DOUBLE_EQ(module.temperature(), 85.0);
    EXPECT_THROW(module.setTemperature(200.0), FatalError);
}

TEST(DramModule, AgeControl)
{
    DramModule module(testSpec());
    module.setAgeDays(30.0);
    EXPECT_DOUBLE_EQ(module.ageDays(), 30.0);
    EXPECT_THROW(module.setAgeDays(-1.0), FatalError);
}

TEST(DramModule, TimingMatchesSpecRate)
{
    ModuleSpec spec = testSpec();
    spec.transferRate = 3200;
    DramModule module(std::move(spec));
    EXPECT_EQ(module.timing().transferRate, 3200u);
}

TEST(DramModule, BanksHaveIndependentNoise)
{
    DramModule module(testSpec());
    for (uint32_t bank : {0u, 1u}) {
        module.bank(bank).pokeSegmentPattern(2, 0b1110);
        uint32_t base = module.geometry().firstRowOfSegment(2);
        module.act(bank, base, 0.0);
        module.pre(bank, 2.5);
        module.act(bank, base + 3, 5.0);
    }
    auto a = module.readBlock(0, 0, 20.0);
    auto b = module.readBlock(1, 0, 20.0);
    EXPECT_NE(a, b);
}

} // anonymous namespace
} // namespace quac::dram
