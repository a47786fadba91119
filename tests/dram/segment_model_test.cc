/**
 * @file
 * Tests for the analytic SegmentModel, including consistency with the
 * command-path Bank model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hh"
#include "dram/bank.hh"
#include "dram/segment_model.hh"

namespace quac::dram
{
namespace
{

class SegmentModelTest : public ::testing::Test
{
  protected:
    SegmentModelTest()
    {
        ctx.geom = &geom;
        ctx.cal = &cal;
        ctx.variation = &var;
    }

    Geometry geom = Geometry::testScale();
    Calibration cal;
    VariationModel var{geom, cal, 2024};
    BankContext ctx;
};

TEST_F(SegmentModelTest, PatternStringRoundTrip)
{
    EXPECT_EQ(patternFromString("0111"), 0b1110);
    EXPECT_EQ(patternFromString("1000"), 0b0001);
    EXPECT_EQ(patternFromString("0000"), 0b0000);
    EXPECT_EQ(patternToString(0b1110), "0111");
    EXPECT_EQ(patternToString(0b0001), "1000");
    for (uint8_t p = 0; p < 16; ++p)
        EXPECT_EQ(patternFromString(patternToString(p).c_str()), p);
}

TEST_F(SegmentModelTest, PatternStringRejectsGarbage)
{
    EXPECT_THROW(patternFromString("011"), FatalError);
    EXPECT_THROW(patternFromString("01110"), FatalError);
    EXPECT_THROW(patternFromString("01a1"), FatalError);
}

TEST_F(SegmentModelTest, AllPatternsEnumeratesFigure8Order)
{
    auto patterns = allPatterns();
    ASSERT_EQ(patterns.size(), 16u);
    EXPECT_EQ(patternToString(patterns[0]), "0000");
    EXPECT_EQ(patternToString(patterns[7]), "0111");
    EXPECT_EQ(patterns[7], 0b1110);
    EXPECT_EQ(patternToString(patterns[15]), "1111");
}

TEST_F(SegmentModelTest, MatchesBankCommandPath)
{
    uint32_t segment = 3;
    uint8_t pattern = patternFromString("0111");

    Bank bank(&ctx, 0, 1);
    bank.pokeSegmentPattern(segment, pattern);
    auto bank_probs = bank.quacProbabilities(segment);

    SegmentModel model(geom, cal, var, 0, segment);
    auto model_probs = model.patternProbabilities(pattern);

    ASSERT_EQ(bank_probs.size(), model_probs.size());
    for (size_t b = 0; b < bank_probs.size(); ++b)
        ASSERT_NEAR(bank_probs[b], model_probs[b], 1e-5)
            << "bitline " << b;
}

TEST_F(SegmentModelTest, BestPatternsAreTheBalancedOnes)
{
    SegmentModel model(geom, cal, var, 0, 5);
    double h0111 = model.segmentEntropy(patternFromString("0111"));
    double h1000 = model.segmentEntropy(patternFromString("1000"));
    double h0101 = model.segmentEntropy(patternFromString("0101"));
    double h0011 = model.segmentEntropy(patternFromString("0011"));
    double h0000 = model.segmentEntropy(patternFromString("0000"));

    EXPECT_GT(h0111, h0101);
    EXPECT_GT(h1000, h0101);
    EXPECT_GT(h0101, h0011);
    EXPECT_GT(h0011, h0000);
    EXPECT_LT(h0000, 1.0);
}

TEST_F(SegmentModelTest, DisplayedPatternsBeatOmittedOnes)
{
    // Figure 8 shows only the eight R0 != R1 patterns; on average
    // (individual segments can favour odd patterns through their
    // systematic mean offset) each of them delivers more entropy
    // than every omitted (R0 == R1) pattern.
    std::array<double, 16> totals{};
    const uint32_t nseg = 24;
    for (uint32_t s = 0; s < nseg; ++s) {
        SegmentModel model(geom, cal, var, 0, s);
        for (uint8_t pattern : allPatterns())
            totals[pattern] += model.segmentEntropy(pattern);
    }
    double min_displayed = 1e18;
    double max_omitted = 0.0;
    for (uint8_t pattern : allPatterns()) {
        bool r0 = pattern & 1;
        bool r1 = (pattern >> 1) & 1;
        if (r0 != r1)
            min_displayed = std::min(min_displayed, totals[pattern]);
        else
            max_omitted = std::max(max_omitted, totals[pattern]);
    }
    EXPECT_GT(min_displayed, max_omitted);
}

TEST_F(SegmentModelTest, EntropyMatchesBitlineSum)
{
    SegmentModel model(geom, cal, var, 0, 2);
    uint8_t pattern = patternFromString("0111");
    auto bit_h = model.bitlineEntropies(
        pattern, quacWeights(cal, 0, cal.quacGapNs, cal.quacGapNs));
    double sum = 0.0;
    for (double h : bit_h)
        sum += h;
    EXPECT_NEAR(model.segmentEntropy(pattern), sum, 1e-9);

    auto blocks = model.cacheBlockEntropies(pattern);
    double block_sum = 0.0;
    for (double h : blocks)
        block_sum += h;
    EXPECT_NEAR(block_sum, sum, 1e-9);
    EXPECT_EQ(blocks.size(), geom.cacheBlocksPerRow());
}

TEST_F(SegmentModelTest, ComplementPatternsSymmetric)
{
    // "0111" and "1000" are charge-mirror images; entropies should be
    // close (not exact: offsets are not symmetric around zero).
    SegmentModel model(geom, cal, var, 0, 2);
    double a = model.segmentEntropy(patternFromString("0111"));
    double b = model.segmentEntropy(patternFromString("1000"));
    EXPECT_NEAR(a, b, 0.35 * std::max(a, b));
}

TEST_F(SegmentModelTest, TemperatureChangesEntropy)
{
    SegmentModel cold(geom, cal, var, 0, 2, 50.0);
    SegmentModel hot(geom, cal, var, 0, 2, 85.0);
    double h_cold = cold.segmentEntropy(patternFromString("0111"));
    double h_hot = hot.segmentEntropy(patternFromString("0111"));
    EXPECT_NE(h_cold, h_hot);
    EXPECT_GT(h_cold, 0.0);
    EXPECT_GT(h_hot, 0.0);
}

TEST_F(SegmentModelTest, SharedOffsetRowMatchesSelfDrawnModel)
{
    // Segments 0..15 share subarray 0's sense amplifiers: one raw
    // offset row serves all of them, bit for bit.
    uint32_t nbits = geom.bitlinesPerRow;
    for (double temperature_c : {50.0, 85.0}) {
        for (uint32_t bank : {0u, 3u}) {
            uint32_t subarray_first = 16;
            std::vector<double> shared(nbits);
            var.saOffsetRowMv(bank, geom.firstRowOfSegment(subarray_first),
                              nbits, shared.data());
            for (uint32_t s = subarray_first; s < subarray_first + 16;
                 s += 5) {
                SegmentModel self(geom, cal, var, bank, s, temperature_c,
                                  7.0);
                SegmentModel from_row(geom, cal, var, bank, s,
                                      shared.data(), temperature_c, 7.0);
                ASSERT_EQ(self.offsetsMv(), from_row.offsetsMv())
                    << "bank " << bank << " segment " << s;
                EXPECT_EQ(self.noiseSigmaMv(), from_row.noiseSigmaMv());
                for (uint8_t pattern : {0b1110, 0b0101}) {
                    EXPECT_EQ(self.patternProbabilities(pattern),
                              from_row.patternProbabilities(pattern));
                    EXPECT_EQ(self.segmentEntropy(pattern),
                              from_row.segmentEntropy(pattern));
                }
            }
        }
    }
}

TEST_F(SegmentModelTest, SegmentAndBlockEntropiesMatchSeparateCalls)
{
    for (uint32_t s : {0u, 9u, 40u}) {
        SegmentModel model(geom, cal, var, 1, s);
        for (uint8_t pattern : allPatterns()) {
            std::vector<double> blocks;
            double h = model.segmentAndBlockEntropies(pattern, blocks);
            EXPECT_EQ(h, model.segmentEntropy(pattern));
            EXPECT_EQ(blocks, model.cacheBlockEntropies(pattern));
        }
    }
}

TEST_F(SegmentModelTest, OutOfRangeSegmentPanics)
{
    auto make_bad = [&]() {
        SegmentModel model(geom, cal, var, 0, geom.segmentsPerBank());
    };
    EXPECT_THROW(make_bad(), PanicError);
}

} // anonymous namespace
} // namespace quac::dram
