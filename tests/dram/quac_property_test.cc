/**
 * @file
 * Parameterized property tests of the QUAC physics across module
 * seeds and activation variants: the paper's qualitative findings
 * must hold for *every* simulated module, not just one seed.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dram/bank.hh"
#include "dram/segment_model.hh"

namespace quac::dram
{
namespace
{

class QuacPerSeed : public ::testing::TestWithParam<uint64_t>
{
  protected:
    QuacPerSeed()
        : geom(Geometry::testScale()),
          var(geom, cal, GetParam())
    {
        ctx.geom = &geom;
        ctx.cal = &cal;
        ctx.variation = &var;
    }

    double
    avgEntropy(uint8_t pattern, unsigned segments = 12,
               unsigned banks = 1)
    {
        double sum = 0.0;
        for (unsigned bank = 0; bank < banks; ++bank) {
            for (unsigned s = 0; s < segments; ++s) {
                SegmentModel model(geom, cal, var, bank, s);
                sum += model.segmentEntropy(pattern);
            }
        }
        return sum / (segments * banks);
    }

    Geometry geom;
    Calibration cal;
    VariationModel var;
    BankContext ctx;
};

TEST_P(QuacPerSeed, BalancedPatternsDominate)
{
    double h0111 = avgEntropy(patternFromString("0111"));
    double h1000 = avgEntropy(patternFromString("1000"));
    double h0101 = avgEntropy(patternFromString("0101"));
    double h0000 = avgEntropy(patternFromString("0000"));
    EXPECT_GT(h0111, h0101);
    EXPECT_GT(h1000, h0101);
    EXPECT_GT(h0101, h0000);
    EXPECT_GT(h0111, 10.0 * h0000 + 1e-9);
}

TEST_P(QuacPerSeed, DisplayedBeatOmittedOnAverage)
{
    // Module-level claim: average over many segments and banks (a
    // single pattern-favoring segment can locally invert the
    // ordering, as the paper's Section 6.1.3 itself notes).
    double min_displayed = 1e18;
    double max_omitted = 0.0;
    for (uint8_t pattern : allPatterns()) {
        double h = avgEntropy(pattern, 48, 3);
        if ((pattern & 1) != ((pattern >> 1) & 1))
            min_displayed = std::min(min_displayed, h);
        else
            max_omitted = std::max(max_omitted, h);
    }
    EXPECT_GT(min_displayed, max_omitted) << "seed " << GetParam();
}

TEST_P(QuacPerSeed, EntropyNonNegativeAndBounded)
{
    for (uint8_t pattern : allPatterns()) {
        double h = avgEntropy(pattern, 4);
        EXPECT_GE(h, 0.0);
        EXPECT_LE(h, static_cast<double>(geom.bitlinesPerRow));
    }
}

TEST_P(QuacPerSeed, QuacAlwaysOpensFourRowsOnInvertedPair)
{
    Bank bank(&ctx, 0, GetParam() ^ 0x1234);
    for (unsigned first : {0u, 1u, 2u, 3u}) {
        uint32_t base = geom.firstRowOfSegment(5);
        // Command times never run backwards: each variant starts on
        // its own 1 us slot.
        double t0 = 1000.0 * first;
        bank.activate(base + first, t0);
        bank.precharge(t0 + 2.5);
        bank.activate(base + (3 - first), t0 + 5.0);
        EXPECT_EQ(bank.openRows().size(), 4u)
            << "first offset " << first;
        bank.read(0, t0 + 20.0);
        bank.precharge(t0 + 60.0);
        // settle fully before the next variant
        bank.activate(base, t0 + 200.0);
        bank.read(0, t0 + 220.0);
        bank.precharge(t0 + 260.0);
    }
}

TEST_P(QuacPerSeed, ProbabilitiesAreValidAndSeedStable)
{
    Bank bank_a(&ctx, 0, 1);
    Bank bank_b(&ctx, 0, 2);
    bank_a.pokeSegmentPattern(3, 0b1110);
    bank_b.pokeSegmentPattern(3, 0b1110);
    auto pa = bank_a.quacProbabilities(3);
    auto pb = bank_b.quacProbabilities(3);
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        ASSERT_GE(pa[i], 0.0f);
        ASSERT_LE(pa[i], 1.0f);
        // Probabilities depend on variation (module seed), not on
        // the bank's thermal-noise stream.
        ASSERT_EQ(pa[i], pb[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuacPerSeed,
                         ::testing::Values(1, 7, 42, 1337, 90210,
                                           0xDEADBEEF));

/** QUAC weight invariants across the (t1, t2) timing plane. */
class QuacWeightTimings
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(QuacWeightTimings, WeightsPositiveAndFirstDominant)
{
    Calibration cal;
    auto [t1, t2] = GetParam();
    QuacWeights weights = quacWeights(cal, 0, t1, t2);
    for (double w : weights.w)
        EXPECT_GT(w, 0.0);
    // The follower weights never change with timing.
    EXPECT_DOUBLE_EQ(weights.w[1], cal.rowWeight1);
    EXPECT_DOUBLE_EQ(weights.w[2], cal.rowWeight2);
    EXPECT_DOUBLE_EQ(weights.w[3], cal.rowWeight3);
}

INSTANTIATE_TEST_SUITE_P(
    TimingPlane, QuacWeightTimings,
    ::testing::Values(std::make_pair(1.5, 1.5),
                      std::make_pair(2.5, 2.5),
                      std::make_pair(2.5, 4.0),
                      std::make_pair(4.0, 2.5),
                      std::make_pair(5.0, 5.0)));

/** Aging invariants across ages. */
class AgingSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(AgingSweep, DriftIsSmoothAndBounded)
{
    Geometry geom = Geometry::testScale();
    Calibration cal;
    VariationModel var(geom, cal, 99, 1.0, 1.0, 0.03);
    double age = GetParam();
    SegmentModel fresh(geom, cal, var, 0, 2, 50.0, 0.0);
    SegmentModel aged(geom, cal, var, 0, 2, 50.0, age);
    double h_fresh = fresh.segmentEntropy(0b1110);
    double h_aged = aged.segmentEntropy(0b1110);
    EXPECT_GT(h_aged, 0.0);
    // Bounded drift: well under 10% per 30 days at a 3% coefficient.
    EXPECT_NEAR(h_aged / h_fresh, 1.0, 0.10 * (age / 30.0 + 1.0));
}

INSTANTIATE_TEST_SUITE_P(Ages, AgingSweep,
                         ::testing::Values(0.0, 7.0, 30.0, 90.0));

} // anonymous namespace
} // namespace quac::dram
