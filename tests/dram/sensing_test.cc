/**
 * @file
 * Tests for the analog sensing math (QUAC weights, development,
 * resolution probability).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "dram/sensing.hh"

namespace quac::dram
{
namespace
{

const Calibration kCal;

/** Net pattern deviation in weight units for a 4-bit pattern. */
double
patternDelta(const QuacWeights &w, uint8_t pattern)
{
    double delta = 0.0;
    for (unsigned i = 0; i < 4; ++i)
        delta += (((pattern >> i) & 1) ? 1.0 : -1.0) * w.w[i];
    return delta;
}

TEST(QuacWeights, OperatingPointNormalization)
{
    QuacWeights w = quacWeights(kCal, 0, 2.5, 2.5);
    EXPECT_NEAR(w.w[0], kCal.firstRowWeight, 1e-9);
    EXPECT_NEAR(w.w[1], kCal.rowWeight1, 1e-12);
    EXPECT_NEAR(w.w[2], kCal.rowWeight2, 1e-12);
    EXPECT_NEAR(w.w[3], kCal.rowWeight3, 1e-12);
}

TEST(QuacWeights, FirstRowBalancesOtherThree)
{
    // The calibration encodes the paper's key observation: the first
    // row's weight equals the sum of the other three, so patterns
    // "0111"/"1000" have zero net deviation.
    QuacWeights w = quacWeights(kCal, 0, 2.5, 2.5);
    EXPECT_NEAR(w.w[0], w.w[1] + w.w[2] + w.w[3], 1e-9);
    EXPECT_NEAR(patternDelta(w, 0b1110), 0.0, 1e-9); // "0111"
    EXPECT_NEAR(patternDelta(w, 0b0001), 0.0, 1e-9); // "1000"
}

TEST(QuacWeights, PaperPatternOrdering)
{
    // |delta| ordering must match Figure 8: the displayed patterns
    // (R0 != R1) all lie below the omitted ones (R0 == R1).
    QuacWeights w = quacWeights(kCal, 0, 2.5, 2.5);
    double d0111 = std::fabs(patternDelta(w, 0b1110));
    double d0110 = std::fabs(patternDelta(w, 0b0110));
    double d0101 = std::fabs(patternDelta(w, 0b1010));
    double d0100 = std::fabs(patternDelta(w, 0b0010));
    double d0011 = std::fabs(patternDelta(w, 0b1100));
    double d0001 = std::fabs(patternDelta(w, 0b1000));
    double d0000 = std::fabs(patternDelta(w, 0b0000));

    EXPECT_LT(d0111, d0110);
    EXPECT_LT(d0110, d0101);
    EXPECT_LT(d0101, d0100);
    EXPECT_LT(d0100, d0011);
    EXPECT_LT(d0011, d0001);
    EXPECT_LT(d0001, d0000);
    EXPECT_NEAR(d0000, 2.0 * kCal.firstRowWeight, 1e-9);
}

TEST(QuacWeights, FirstOffsetSelectsWeightSlot)
{
    QuacWeights w = quacWeights(kCal, 3, 2.5, 2.5);
    EXPECT_NEAR(w.w[3], kCal.firstRowWeight, 1e-9);
    EXPECT_NEAR(w.w[0], kCal.rowWeight1, 1e-12);
    EXPECT_NEAR(w.w[1], kCal.rowWeight2, 1e-12);
    EXPECT_NEAR(w.w[2], kCal.rowWeight3, 1e-12);
}

TEST(QuacWeights, LongerFirstGapIncreasesFirstRowWeight)
{
    QuacWeights base = quacWeights(kCal, 0, 2.5, 2.5);
    QuacWeights longer = quacWeights(kCal, 0, 4.0, 2.5);
    EXPECT_GT(longer.w[0], base.w[0]);
    EXPECT_DOUBLE_EQ(longer.w[1], base.w[1]);
}

TEST(QuacWeights, RejectsBadOffset)
{
    EXPECT_THROW(quacWeights(kCal, 4, 2.5, 2.5), PanicError);
}

TEST(DevelopFraction, DeadZoneThenLinear)
{
    EXPECT_EQ(developFraction(kCal, 0.0), 0.0);
    EXPECT_EQ(developFraction(kCal, kCal.tSenseDead), 0.0);
    EXPECT_GT(developFraction(kCal, kCal.tSenseDead + 1.0), 0.0);
    EXPECT_LT(developFraction(kCal, kCal.tFullDevelop - 0.5), 1.0);
    EXPECT_EQ(developFraction(kCal, kCal.tFullDevelop), 1.0);
    EXPECT_EQ(developFraction(kCal, 100.0), 1.0);
}

TEST(ProbabilityOne, BalancedIsHalf)
{
    EXPECT_NEAR(probabilityOne(0.0, 0.0, 1.0), 0.5, 1e-12);
}

TEST(ProbabilityOne, OffsetShiftsThreshold)
{
    // Deviation above offset favours 1, below favours 0.
    EXPECT_GT(probabilityOne(1.0, 0.0, 1.0), 0.5);
    EXPECT_LT(probabilityOne(0.0, 1.0, 1.0), 0.5);
    EXPECT_NEAR(probabilityOne(2.0, 2.0, 1.0), 0.5, 1e-12);
}

TEST(ProbabilityOne, TailsSaturate)
{
    EXPECT_NEAR(probabilityOne(100.0, 0.0, 1.0), 1.0, 1e-12);
    EXPECT_NEAR(probabilityOne(-100.0, 0.0, 1.0), 0.0, 1e-12);
}

TEST(ProbabilityOne, KnownGaussianValue)
{
    // Phi(1) = 0.841344746...
    EXPECT_NEAR(probabilityOne(1.0, 0.0, 1.0), 0.8413447, 1e-6);
}

TEST(ProbabilityOne, RejectsNonPositiveSigma)
{
    EXPECT_THROW(probabilityOne(0.0, 0.0, 0.0), PanicError);
}

TEST(ProbabilityOneBatch, MatchesScalarOracle)
{
    // Dense sweep of z = (dev - offset) / sigma across the
    // non-degenerate range, at several sigmas.
    for (double sigma : {0.12, 1.0, 5.4}) {
        std::vector<double> dev;
        std::vector<double> offset;
        for (double z = -8.0; z <= 8.0; z += 0.0103) {
            dev.push_back(z * sigma);
            offset.push_back(0.0);
        }
        std::vector<float> batch(dev.size());
        probabilityOneBatch(dev.data(), offset.data(), sigma,
                            batch.data(), dev.size());
        for (size_t i = 0; i < dev.size(); ++i) {
            double oracle = probabilityOne(dev[i], offset[i], sigma);
            ASSERT_NEAR(batch[i], oracle, 5e-7)
                << "sigma=" << sigma << " dev=" << dev[i];
        }
    }
}

TEST(ProbabilityOneBatch, SnapsDegenerateTailsExactly)
{
    std::vector<double> dev = {100.0, -100.0, 3.0, 700.0, -650.0};
    std::vector<double> offset = {0.0, 0.0, 0.0, 650.0, 700.0};
    std::vector<float> out(dev.size());
    probabilityOneBatch(dev.data(), offset.data(), 1.0, out.data(),
                        out.size());
    EXPECT_EQ(out[0], 1.0f);
    EXPECT_EQ(out[1], 0.0f);
    EXPECT_GT(out[2], 0.0f);
    EXPECT_LT(out[2], 1.0f);
    EXPECT_EQ(out[3], 1.0f);
    EXPECT_EQ(out[4], 0.0f);
}

TEST(ProbabilityOneBatch, SaturatedTailsAreExactConstants)
{
    // The saturation fast-path emits 1.0f / 0.0f for every bitline
    // whose |dev - offset| / sigma is >= saturationZ on one side,
    // without evaluating Phi. That is bit-identical only if the batch
    // kernel itself snaps the whole range to exactly those constants:
    // sweep z from saturationZ outward on both tails, at several
    // sigmas and offsets.
    for (double sigma : {0.12, 1.0, 5.4}) {
        for (double offset_mv : {-30.0, 0.0, 17.5}) {
            std::vector<double> dev;
            std::vector<double> offset;
            for (double z = saturationZ; z <= 60.0; z += 0.0137) {
                dev.push_back(offset_mv + z * sigma);
                dev.push_back(offset_mv - z * sigma);
                offset.push_back(offset_mv);
                offset.push_back(offset_mv);
            }
            std::vector<float> out(dev.size());
            probabilityOneBatch(dev.data(), offset.data(), sigma,
                                out.data(), out.size());
            for (size_t i = 0; i < out.size(); ++i) {
                ASSERT_EQ(out[i], i % 2 == 0 ? 1.0f : 0.0f)
                    << "sigma=" << sigma << " offset=" << offset_mv
                    << " dev=" << dev[i];
            }
        }
    }
}

TEST(ProbabilityOneBatch, RejectsNonPositiveSigma)
{
    double dev = 0.0, offset = 0.0;
    float out = 0.0f;
    EXPECT_THROW(probabilityOneBatch(&dev, &offset, 0.0, &out, 1),
                 PanicError);
}

TEST(ResolveBitsBatch, PacksComparisonsWordAtATime)
{
    // 130 bits: two full words plus a 2-bit tail.
    const size_t nbits = 130;
    std::vector<float> uniforms(nbits);
    std::vector<float> probs(nbits);
    uint64_t state = 99;
    for (size_t i = 0; i < nbits; ++i) {
        uniforms[i] = (quac::splitmix64(state) >> 40) * 0x1p-24f;
        probs[i] = (quac::splitmix64(state) >> 40) * 0x1p-24f;
    }
    std::vector<uint64_t> words(3, ~uint64_t{0});
    resolveBitsBatch(uniforms.data(), probs.data(), nbits, words.data());
    for (size_t i = 0; i < nbits; ++i) {
        bool expect = uniforms[i] < probs[i];
        bool got = (words[i / 64] >> (i % 64)) & 1;
        ASSERT_EQ(got, expect) << "bit " << i;
    }
    // The tail of the last word is zeroed.
    EXPECT_EQ(words[2] >> 2, 0u);
}

TEST(ResolveBitsBatch, DegenerateProbabilitiesAreDeterministic)
{
    const size_t nbits = 64;
    std::vector<float> uniforms(nbits);
    std::vector<float> probs(nbits);
    for (size_t i = 0; i < nbits; ++i) {
        // Extreme uniforms on alternating bits, degenerate p split
        // half/half: p == 0 never fires, p == 1 always fires.
        uniforms[i] = (i % 2) ? 0.0f : 1.0f - 0x1p-24f;
        probs[i] = (i < 32) ? 0.0f : 1.0f;
    }
    uint64_t word = 0;
    resolveBitsBatch(uniforms.data(), probs.data(), nbits, &word);
    EXPECT_EQ(word, 0xFFFFFFFF00000000ull);
}

} // anonymous namespace
} // namespace quac::dram
