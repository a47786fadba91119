/**
 * @file
 * Tests for the characterization driver and SIB range computation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hh"
#include "core/characterizer.hh"
#include "dram/catalog.hh"

namespace quac::core
{
namespace
{

dram::ModuleSpec
testSpec(uint64_t seed = 404)
{
    dram::ModuleSpec spec;
    spec.geometry = dram::Geometry::testScale();
    spec.seed = seed;
    return spec;
}

TEST(SibRanges, SimpleAccumulation)
{
    // Entropy 100 per block, target 256: ranges of 3 blocks each.
    std::vector<double> entropy(9, 100.0);
    auto ranges = sibRanges(entropy, 256.0);
    ASSERT_EQ(ranges.size(), 3u);
    EXPECT_EQ(ranges[0].beginColumn, 0u);
    EXPECT_EQ(ranges[0].endColumn, 3u);
    EXPECT_DOUBLE_EQ(ranges[0].entropy, 300.0);
    EXPECT_EQ(ranges[2].endColumn, 9u);
}

TEST(SibRanges, TrailingShortfallDiscarded)
{
    std::vector<double> entropy = {300.0, 100.0};
    auto ranges = sibRanges(entropy, 256.0);
    ASSERT_EQ(ranges.size(), 1u);
    EXPECT_EQ(ranges[0].endColumn, 1u);
}

TEST(SibRanges, UnevenEntropy)
{
    std::vector<double> entropy = {10.0, 250.0, 5.0, 260.0, 1.0};
    auto ranges = sibRanges(entropy, 256.0);
    ASSERT_EQ(ranges.size(), 2u);
    EXPECT_EQ(ranges[0].beginColumn, 0u);
    EXPECT_EQ(ranges[0].endColumn, 2u);
    EXPECT_EQ(ranges[1].beginColumn, 2u);
    EXPECT_EQ(ranges[1].endColumn, 4u);
}

TEST(SibRanges, RangesAreDisjointAndOrdered)
{
    std::vector<double> entropy(50);
    for (size_t i = 0; i < entropy.size(); ++i)
        entropy[i] = 20.0 + 15.0 * (i % 7);
    auto ranges = sibRanges(entropy, 256.0);
    ASSERT_GT(ranges.size(), 1u);
    for (size_t i = 0; i < ranges.size(); ++i) {
        EXPECT_LT(ranges[i].beginColumn, ranges[i].endColumn);
        EXPECT_GE(ranges[i].entropy, 256.0);
        if (i > 0) {
            EXPECT_EQ(ranges[i].beginColumn, ranges[i - 1].endColumn);
        }
    }
}

TEST(SibRanges, RejectsBadTarget)
{
    EXPECT_THROW(sibRanges({1.0}, 0.0), PanicError);
}

class CharacterizerTest : public ::testing::Test
{
  protected:
    CharacterizerTest() : module(testSpec()), characterizer(module) {}

    dram::DramModule module;
    Characterizer characterizer;
};

TEST_F(CharacterizerTest, SegmentEntropiesCoverBank)
{
    CharacterizerConfig cfg;
    cfg.threads = 2;
    auto entropies = characterizer.segmentEntropies(cfg);
    EXPECT_EQ(entropies.size(), module.geometry().segmentsPerBank());
    for (const auto &se : entropies)
        EXPECT_GE(se.entropy, 0.0);
}

TEST_F(CharacterizerTest, StrideSamples)
{
    CharacterizerConfig cfg;
    cfg.segmentStride = 4;
    auto entropies = characterizer.segmentEntropies(cfg);
    EXPECT_EQ(entropies.size(),
              module.geometry().segmentsPerBank() / 4);
    EXPECT_EQ(entropies[1].segment, 4u);
}

TEST_F(CharacterizerTest, BestSegmentIsArgmax)
{
    CharacterizerConfig cfg;
    auto entropies = characterizer.segmentEntropies(cfg);
    SegmentEntropy best = characterizer.bestSegment(cfg);
    double max_entropy = 0.0;
    for (const auto &se : entropies)
        max_entropy = std::max(max_entropy, se.entropy);
    EXPECT_DOUBLE_EQ(best.entropy, max_entropy);
    dram::SegmentModel model(module.geometry(), module.calibration(),
                             module.variation(), 0, best.segment);
    EXPECT_DOUBLE_EQ(model.segmentEntropy(cfg.pattern), best.entropy);
}

TEST_F(CharacterizerTest, PatternSweepOrdering)
{
    CharacterizerConfig cfg;
    cfg.segmentStride = 2;
    auto stats = characterizer.patternSweep(cfg);
    ASSERT_EQ(stats.size(), 16u);

    auto find = [&](const char *s) {
        uint8_t pattern = dram::patternFromString(s);
        for (const auto &ps : stats) {
            if (ps.pattern == pattern)
                return ps;
        }
        return PatternStats{};
    };

    // Figure 8's headline ordering.
    EXPECT_GT(find("0111").avgCacheBlockEntropy,
              find("0101").avgCacheBlockEntropy);
    EXPECT_GT(find("1000").avgCacheBlockEntropy,
              find("1010").avgCacheBlockEntropy);
    EXPECT_GT(find("0101").avgCacheBlockEntropy,
              find("0011").avgCacheBlockEntropy);
    EXPECT_GT(find("0111").maxCacheBlockEntropy,
              find("0111").avgCacheBlockEntropy);
}

TEST_F(CharacterizerTest, CacheBlockProfile)
{
    CharacterizerConfig cfg;
    BankProfile profile = characterizer.profileBanks({0}, cfg).front();
    const std::vector<double> &blocks = profile.bestCacheBlocks;
    EXPECT_EQ(blocks.size(), module.geometry().cacheBlocksPerRow());
    double sum = 0.0;
    for (double h : blocks)
        sum += h;
    EXPECT_NEAR(sum, profile.best.entropy, 1e-6);
}

TEST_F(CharacterizerTest, TemperatureShiftsEntropy)
{
    CharacterizerConfig cold;
    CharacterizerConfig hot;
    hot.temperatureC = 85.0;
    double h_cold = characterizer.bestSegment(cold).entropy;
    double h_hot = characterizer.bestSegment(hot).entropy;
    EXPECT_NE(h_cold, h_hot);
}

TEST_F(CharacterizerTest, InvalidBankPanics)
{
    CharacterizerConfig cfg;
    cfg.bank = module.geometry().banks;
    EXPECT_THROW(characterizer.segmentEntropies(cfg), PanicError);
}

TEST_F(CharacterizerTest, StrideZeroPanics)
{
    CharacterizerConfig cfg;
    cfg.segmentStride = 0;
    EXPECT_THROW(characterizer.segmentEntropies(cfg), PanicError);
    EXPECT_THROW(characterizer.patternSweep(cfg), PanicError);
}

/**
 * The reference the grouped pass must reproduce bit for bit: one
 * self-drawing SegmentModel per sampled segment, and the first strict
 * maximum in segment order as the best segment.
 */
BankProfile
referenceProfile(const dram::DramModule &module, uint32_t bank,
                 const CharacterizerConfig &cfg)
{
    const dram::Geometry &geom = module.geometry();
    BankProfile ref;
    ref.bank = bank;
    for (uint32_t s = 0; s < geom.segmentsPerBank();
         s += cfg.segmentStride) {
        dram::SegmentModel model(geom, module.calibration(),
                                 module.variation(), bank, s,
                                 cfg.temperatureC, cfg.ageDays);
        SegmentEntropy se{s, model.segmentEntropy(cfg.pattern)};
        ref.segments.push_back(se);
        if (s == 0 || se.entropy > ref.best.entropy) {
            ref.best = se;
            ref.bestCacheBlocks = model.cacheBlockEntropies(cfg.pattern);
        }
    }
    return ref;
}

void
expectSameProfile(const BankProfile &got, const BankProfile &ref)
{
    EXPECT_EQ(got.bank, ref.bank);
    ASSERT_EQ(got.segments.size(), ref.segments.size());
    for (size_t i = 0; i < ref.segments.size(); ++i) {
        EXPECT_EQ(got.segments[i].segment, ref.segments[i].segment);
        // Bitwise: the pass must not change a single rounding.
        EXPECT_EQ(got.segments[i].entropy, ref.segments[i].entropy)
            << "bank " << ref.bank << " segment "
            << ref.segments[i].segment;
    }
    EXPECT_EQ(got.best.segment, ref.best.segment);
    EXPECT_EQ(got.best.entropy, ref.best.entropy);
    EXPECT_EQ(got.bestCacheBlocks, ref.bestCacheBlocks);
}

TEST(GroupedCharacterization, MatchesSelfDrawnModelsOnEveryServedModule)
{
    // The five catalogue modules the entropy servers and e2ebench
    // build (test scale, seed + index), at QuacTrng's test-scale
    // sampling stride.
    const std::vector<uint32_t> banks = {0, 1, 2, 3};
    for (size_t m = 0; m < 5; ++m) {
        dram::ModuleSpec spec = dram::specFor(
            dram::paperCatalog()[m], dram::Geometry::testScale());
        spec.seed += m;
        dram::DramModule module(std::move(spec));
        CharacterizerConfig cfg;
        cfg.segmentStride = 4;
        cfg.threads = 3;
        SCOPED_TRACE(dram::paperCatalog()[m].name);
        auto profiles = Characterizer(module).profileBanks(banks, cfg);
        ASSERT_EQ(profiles.size(), banks.size());
        for (size_t b = 0; b < banks.size(); ++b)
            expectSameProfile(profiles[b],
                              referenceProfile(module, banks[b], cfg));
    }
}

TEST(GroupedCharacterization, SingleBankSweepsMatchSelfDrawnModels)
{
    // Stride 3 makes groups of uneven size.
    dram::DramModule module(testSpec());
    Characterizer characterizer(module);
    CharacterizerConfig cfg;
    cfg.bank = 6;
    cfg.segmentStride = 3;
    BankProfile ref = referenceProfile(module, cfg.bank, cfg);
    auto entropies = characterizer.segmentEntropies(cfg);
    ASSERT_EQ(entropies.size(), ref.segments.size());
    for (size_t i = 0; i < entropies.size(); ++i) {
        EXPECT_EQ(entropies[i].segment, ref.segments[i].segment);
        EXPECT_EQ(entropies[i].entropy, ref.segments[i].entropy);
    }
    SegmentEntropy best = characterizer.bestSegment(cfg);
    EXPECT_EQ(best.segment, ref.best.segment);
    EXPECT_EQ(best.entropy, ref.best.entropy);
}

TEST(GroupedCharacterization, HotAgedModuleMatchesSelfDrawnModels)
{
    dram::DramModule module(
        dram::specFor(dram::paperCatalog()[2],
                      dram::Geometry::testScale()));
    CharacterizerConfig cfg;
    cfg.temperatureC = 85.0;
    cfg.ageDays = 30.0;
    cfg.segmentStride = 2;
    auto profiles = Characterizer(module).profileBanks({5, 1}, cfg);
    ASSERT_EQ(profiles.size(), 2u);
    expectSameProfile(profiles[0], referenceProfile(module, 5, cfg));
    expectSameProfile(profiles[1], referenceProfile(module, 1, cfg));
}

TEST(GroupedCharacterization, PatternSweepMatchesSelfDrawnModels)
{
    dram::DramModule module(
        dram::specFor(dram::paperCatalog()[0],
                      dram::Geometry::testScale()));
    CharacterizerConfig cfg;
    cfg.bank = 3;
    cfg.segmentStride = 4;
    auto stats = Characterizer(module).patternSweep(cfg);

    // The sweep's own arithmetic over self-drawn models, in segment
    // order.
    const dram::Geometry &geom = module.geometry();
    auto patterns = dram::allPatterns();
    ASSERT_EQ(stats.size(), patterns.size());
    std::vector<double> sum_cb(patterns.size(), 0.0);
    std::vector<double> max_cb(patterns.size(), 0.0);
    size_t blocks_total = 0;
    size_t segments = 0;
    for (uint32_t s = 0; s < geom.segmentsPerBank();
         s += cfg.segmentStride) {
        dram::SegmentModel model(geom, module.calibration(),
                                 module.variation(), cfg.bank, s);
        ++segments;
        for (size_t p = 0; p < patterns.size(); ++p) {
            double seg_sum = 0.0;
            double seg_max = 0.0;
            auto blocks = model.cacheBlockEntropies(patterns[p]);
            for (double h : blocks) {
                seg_sum += h;
                seg_max = std::max(seg_max, h);
            }
            sum_cb[p] += seg_sum;
            max_cb[p] = std::max(max_cb[p], seg_max);
            if (p == 0)
                blocks_total += blocks.size();
        }
    }
    for (size_t p = 0; p < patterns.size(); ++p) {
        EXPECT_EQ(stats[p].pattern, patterns[p]);
        EXPECT_EQ(stats[p].avgCacheBlockEntropy,
                  sum_cb[p] / static_cast<double>(blocks_total));
        EXPECT_EQ(stats[p].maxCacheBlockEntropy, max_cb[p]);
        EXPECT_EQ(stats[p].avgSegmentEntropy,
                  sum_cb[p] / static_cast<double>(segments));
    }
}

TEST(GroupedCharacterization, RejectsBankOutOfRange)
{
    dram::DramModule module(testSpec());
    CharacterizerConfig cfg;
    EXPECT_THROW(Characterizer(module).profileBanks(
                     {0, module.geometry().banks}, cfg),
                 PanicError);
}

} // anonymous namespace
} // namespace quac::core
