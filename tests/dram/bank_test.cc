/**
 * @file
 * Tests for the bank state machine: normal operation plus the four
 * violated-timing behaviour classes (QUAC, RowClone, tRP failure,
 * tRCD failure).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/stats.hh"
#include "dram/bank.hh"
#include "dram/module.hh"
#include "softmc/host.hh"

namespace quac::dram
{
namespace
{

class BankTest : public ::testing::Test
{
  protected:
    BankTest()
    {
        ctx.geom = &geom;
        ctx.cal = &cal;
        ctx.variation = &var;
    }

    Bank makeBank(uint32_t id = 0, uint64_t seed = 42)
    {
        return Bank(&ctx, id, seed);
    }

    /** Count of set bits across a row's words. */
    static size_t
    onesIn(const std::vector<uint64_t> &words)
    {
        size_t count = 0;
        for (uint64_t w : words)
            count += static_cast<size_t>(__builtin_popcountll(w));
        return count;
    }

    Geometry geom = Geometry::testScale();
    Calibration cal;
    VariationModel var{geom, cal, 999};
    BankContext ctx;
};

TEST_F(BankTest, NormalActivateReadBack)
{
    Bank bank = makeBank();
    bank.pokeRowFill(10, true);
    bank.activate(10, 0.0);
    auto block = bank.read(0, 13.32);
    EXPECT_EQ(onesIn(block), geom.cacheBlockBits);
    EXPECT_EQ(bank.openRows(), std::vector<uint32_t>{10});
}

TEST_F(BankTest, NormalOperationIsErrorFree)
{
    // Guardbanded timings never flip bits, even over many cycles.
    Bank bank = makeBank();
    double t = 0.0;
    for (int iter = 0; iter < 20; ++iter) {
        uint32_t row = 16 + iter;
        bank.pokeCell(row, 100, iter % 2 == 0);
        bank.activate(row, t);
        auto block = bank.read(100 / geom.cacheBlockBits, t + 13.32);
        bool bit = (block[(100 % geom.cacheBlockBits) / 64] >>
                    (100 % 64)) & 1;
        EXPECT_EQ(bit, iter % 2 == 0) << "iteration " << iter;
        bank.precharge(t + 45.0);
        t += 60.0;
    }
}

TEST_F(BankTest, WriteUpdatesRowBufferAndCells)
{
    Bank bank = makeBank();
    bank.activate(4, 0.0);
    std::vector<uint64_t> pattern(geom.cacheBlockBits / 64,
                                  0xAAAAAAAAAAAAAAAAULL);
    bank.write(1, pattern, 14.0);
    auto block = bank.read(1, 15.0);
    EXPECT_EQ(block, pattern);
    bank.precharge(50.0);
    EXPECT_TRUE(bank.peekCell(4, geom.cacheBlockBits + 1));
    EXPECT_FALSE(bank.peekCell(4, geom.cacheBlockBits));
}

TEST_F(BankTest, ActWithoutPreIsFatal)
{
    Bank bank = makeBank();
    bank.activate(0, 0.0);
    bank.read(0, 13.32);
    EXPECT_THROW(bank.activate(1, 20.0), FatalError);
}

TEST_F(BankTest, ActBeforeLastPreIsFatal)
{
    Bank bank = makeBank();
    bank.activate(0, 100.0);
    bank.precharge(150.0);
    // A backwards gap would grow the precharge residual instead of
    // decaying it.
    EXPECT_THROW(bank.activate(16, 149.0), FatalError);
    bank.activate(16, 150.0);
}

TEST_F(BankTest, SecondHostBehindTheModuleClockIsFatal)
{
    // One host drives the module past t = 1000 ns; a fresh host
    // starts its cursor at 0. Its ACT used to see a negative gap and
    // read the first host's all-ones row 8 back as a phantom
    // RowClone into a row nobody wrote.
    ModuleSpec spec;
    spec.geometry = Geometry::testScale();
    DramModule module(spec);
    softmc::SoftMcHost first(module);
    first.writeRowFill(0, 8, true);
    first.wait(1000.0);
    ASSERT_GT(first.now(), 1000.0);
    softmc::SoftMcHost second(module);
    EXPECT_THROW(second.actObeyed(0, 16), FatalError);
    second.wait(first.now());
    second.actObeyed(0, 16);
    EXPECT_EQ(onesIn(second.readOpenRow(0)), 0u);
}

TEST_F(BankTest, ReadOnClosedBankIsFatal)
{
    Bank bank = makeBank();
    EXPECT_THROW(bank.read(0, 0.0), FatalError);
    bank.activate(0, 10.0);
    bank.read(0, 24.0);
    bank.precharge(50.0);
    EXPECT_THROW(bank.read(0, 70.0), FatalError);
}

TEST_F(BankTest, QuacOpensAllFourRows)
{
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b1110); // "0111"
    uint32_t base = geom.firstRowOfSegment(2);

    bank.activate(base + 0, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 3, 5.0);

    std::vector<uint32_t> expected = {base, base + 1, base + 2, base + 3};
    EXPECT_EQ(bank.openRows(), expected);
}

TEST_F(BankTest, QuacRequiresInvertedLsbPair)
{
    // Paper Section 4: ACTs to rows 0 and 1 (LSBs not inverted) open
    // only those two rows, not the full segment.
    Bank bank = makeBank();
    uint32_t base = geom.firstRowOfSegment(2);
    bank.activate(base + 0, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 1, 5.0);

    std::vector<uint32_t> expected = {base, base + 1};
    EXPECT_EQ(bank.openRows(), expected);
}

TEST_F(BankTest, QuacRows1And2AlsoWork)
{
    Bank bank = makeBank();
    uint32_t base = geom.firstRowOfSegment(3);
    bank.activate(base + 1, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 2, 5.0);
    EXPECT_EQ(bank.openRows().size(), 4u);
}

TEST_F(BankTest, ObeyedTimingsPreventQuac)
{
    // With tRAS and tRP obeyed, the same ACT/PRE/ACT addresses only
    // ever open one row at a time.
    Bank bank = makeBank();
    uint32_t base = geom.firstRowOfSegment(2);
    bank.activate(base + 0, 0.0);
    bank.read(0, 13.32);
    bank.precharge(45.0);
    bank.activate(base + 3, 45.0 + 13.32);
    EXPECT_EQ(bank.openRows(), std::vector<uint32_t>{base + 3});
}

TEST_F(BankTest, QuacOnConflictingDataIsRandom)
{
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b1110); // "0111": R0=0, R1..R3=1
    uint32_t base = geom.firstRowOfSegment(2);

    bank.activate(base + 0, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 3, 5.0);

    // Read the whole row buffer; expect a nontrivial mix of 0s/1s.
    size_t ones = 0;
    for (uint32_t col = 0; col < geom.cacheBlocksPerRow(); ++col)
        ones += onesIn(bank.read(col, 20.0));
    EXPECT_GT(ones, 0u);
    EXPECT_LT(ones, static_cast<size_t>(geom.bitlinesPerRow));
}

TEST_F(BankTest, QuacOnAllZerosIsDeterministic)
{
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b0000);
    uint32_t base = geom.firstRowOfSegment(2);
    bank.activate(base + 0, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 3, 5.0);
    size_t ones = 0;
    for (uint32_t col = 0; col < geom.cacheBlocksPerRow(); ++col)
        ones += onesIn(bank.read(col, 20.0));
    EXPECT_EQ(ones, 0u);
}

TEST_F(BankTest, QuacWritesBackToAllFourRows)
{
    // Reproduces the paper's Section 4 validation experiment: after
    // QUAC, writing new data into the sense amps and precharging
    // updates all four rows.
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b1110);
    uint32_t base = geom.firstRowOfSegment(2);

    bank.activate(base + 0, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 3, 5.0);

    std::vector<uint64_t> marker(geom.cacheBlockBits / 64,
                                 0x123456789ABCDEF0ULL);
    for (uint32_t col = 0; col < geom.cacheBlocksPerRow(); ++col)
        bank.write(col, marker, 20.0 + col);
    bank.precharge(200.0);

    for (uint32_t i = 0; i < 4; ++i) {
        auto row = bank.peekRow(base + i);
        for (size_t w = 0; w < row.size(); ++w)
            ASSERT_EQ(row[w], 0x123456789ABCDEF0ULL)
                << "row offset " << i << " word " << w;
    }
}

TEST_F(BankTest, QuacResolutionRestoresCells)
{
    // Even without explicit writes, QUAC resolution drives the random
    // values back into all four open rows.
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b1110);
    uint32_t base = geom.firstRowOfSegment(2);
    bank.activate(base + 0, 0.0);
    bank.precharge(2.5);
    bank.activate(base + 3, 5.0);
    auto block = bank.read(0, 20.0);
    bank.precharge(60.0);
    auto row0 = bank.peekRow(base);
    auto row3 = bank.peekRow(base + 3);
    EXPECT_EQ(row0, row3) << "all rows hold the sense-amp values";
    std::vector<uint64_t> head(row0.begin(),
                               row0.begin() + block.size());
    EXPECT_EQ(head, block);
}

TEST_F(BankTest, QuacDeterministicForSameSeed)
{
    auto run = [&](uint64_t seed) {
        Bank bank = makeBank(0, seed);
        bank.pokeSegmentPattern(2, 0b1110);
        uint32_t base = geom.firstRowOfSegment(2);
        bank.activate(base + 0, 0.0);
        bank.precharge(2.5);
        bank.activate(base + 3, 5.0);
        return bank.read(0, 20.0);
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST_F(BankTest, QuacProbabilitiesMatchPattern)
{
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b1110);
    auto probs = bank.quacProbabilities(2);
    ASSERT_EQ(probs.size(), geom.bitlinesPerRow);

    // Balanced pattern: average probability in the metastable band
    // (the segment's systematic mean offset biases it away from
    // exactly 0.5) and at least a few metastable bitlines.
    double sum = 0.0;
    int metastable = 0;
    for (float p : probs) {
        sum += p;
        if (p > 0.01f && p < 0.99f)
            metastable++;
    }
    EXPECT_NEAR(sum / probs.size(), 0.5, 0.3);
    EXPECT_GT(metastable, 0);
}

TEST_F(BankTest, EmpiricalFrequencyTracksProbability)
{
    // Sample one QUAC repeatedly; per-bitline frequency must track
    // the analytic probability.
    Bank bank = makeBank();
    bank.pokeSegmentPattern(2, 0b1110);
    uint32_t base = geom.firstRowOfSegment(2);
    auto probs = bank.quacProbabilities(2);

    // Pick the most metastable bitline.
    uint32_t target = 0;
    float best = 1.0f;
    for (uint32_t b = 0; b < probs.size(); ++b) {
        if (std::fabs(probs[b] - 0.5f) < best) {
            best = std::fabs(probs[b] - 0.5f);
            target = b;
        }
    }
    ASSERT_LT(std::fabs(probs[target] - 0.5f), 0.45f)
        << "test geometry should contain a metastable bitline";

    const int iters = 600;
    int ones = 0;
    double t = 0.0;
    for (int i = 0; i < iters; ++i) {
        bank.pokeSegmentPattern(2, 0b1110); // re-init destroyed rows
        bank.activate(base + 0, t);
        bank.precharge(t + 2.5);
        bank.activate(base + 3, t + 5.0);
        auto block = bank.read(target / geom.cacheBlockBits, t + 20.0);
        uint32_t in_block = target % geom.cacheBlockBits;
        ones += (block[in_block / 64] >> (in_block % 64)) & 1;
        bank.precharge(t + 60.0);
        t += 100.0;
    }
    double freq = static_cast<double>(ones) / iters;
    EXPECT_NEAR(freq, probs[target], 0.08);
}

TEST_F(BankTest, RowCloneCopies)
{
    Bank bank = makeBank();
    // Source in segment 0, destination in segment 4 (same subarray).
    bank.pokeRowFill(1, true);
    uint32_t dst = 17;
    bank.pokeRowFill(dst, false);

    bank.activate(1, 0.0);
    bank.precharge(10.0);       // SAs latched with source data
    bank.activate(dst, 12.5);   // violated tRP: residual wins
    bank.read(0, 26.0);         // resolve
    bank.precharge(60.0);

    auto dst_row = bank.peekRow(dst);
    EXPECT_EQ(onesIn(dst_row), geom.bitlinesPerRow)
        << "destination should be overwritten with the source's 1s";
}

TEST_F(BankTest, TrpFailureFlipsSomeCells)
{
    Bank bank = makeBank();
    bank.pokeRowFill(1, true);   // donor drives row buffer to all-1s
    uint32_t victim = 17;
    bank.pokeRowFill(victim, false);

    bank.activate(1, 0.0);
    bank.read(0, 13.32);
    bank.precharge(45.0);
    bank.activate(victim, 45.0 + cal.talukderPreNs);
    size_t ones = 0;
    for (uint32_t col = 0; col < geom.cacheBlocksPerRow(); ++col)
        ones += onesIn(bank.read(col, 75.0));

    // Some cells flip toward the residual, but not the whole row.
    EXPECT_GT(ones, 0u);
    EXPECT_LT(ones, static_cast<size_t>(geom.bitlinesPerRow) / 2);
}

TEST_F(BankTest, ObeyedPrechargePreventsResidual)
{
    Bank bank = makeBank();
    bank.pokeRowFill(1, true);
    uint32_t victim = 17;
    bank.pokeRowFill(victim, false);

    bank.activate(1, 0.0);
    bank.read(0, 13.32);
    bank.precharge(45.0);
    bank.activate(victim, 45.0 + 13.32); // obeyed tRP
    size_t ones = 0;
    for (uint32_t col = 0; col < geom.cacheBlocksPerRow(); ++col)
        ones += onesIn(bank.read(col, 75.0));
    EXPECT_EQ(ones, 0u);
}

TEST_F(BankTest, TrcdViolationSamplesRandomBits)
{
    Bank bank = makeBank();
    bank.pokeRowFill(3, false);

    // Repeat the D-RaNGe access loop and count flips at the weakest
    // cells: an all-0 row read early should show a few 1s.
    int total_ones = 0;
    double t = 0.0;
    for (int i = 0; i < 50; ++i) {
        bank.pokeRowFill(3, false);
        bank.activate(3, t);
        auto block = bank.read(0, t + cal.drangeReadNs);
        total_ones += static_cast<int>(onesIn(block));
        bank.precharge(t + 45.0);
        t += 60.0;
    }
    EXPECT_GT(total_ones, 0) << "tRCD failures should flip some bits";
    EXPECT_LT(total_ones, 50 * static_cast<int>(geom.cacheBlockBits) / 2);
}

TEST_F(BankTest, EarlyReadProbabilitiesExposeRace)
{
    Bank bank = makeBank();
    bank.pokeRowFill(3, false);
    auto early = bank.earlyReadProbabilities(3, cal.drangeReadNs);
    auto late = bank.earlyReadProbabilities(3, 13.32);

    double early_h = 0.0;
    double late_h = 0.0;
    for (uint32_t b = 0; b < geom.bitlinesPerRow; ++b) {
        early_h += binaryEntropy(early[b]);
        late_h += binaryEntropy(late[b]);
    }
    EXPECT_GT(early_h, late_h);
    EXPECT_NEAR(late_h, 0.0, 1e-6);
}

TEST_F(BankTest, DropRowReleasesStorage)
{
    Bank bank = makeBank();
    bank.pokeRowFill(9, true);
    EXPECT_TRUE(bank.peekCell(9, 0));
    bank.dropRow(9);
    EXPECT_FALSE(bank.peekCell(9, 0));
}

TEST_F(BankTest, PokeOutOfRangePanics)
{
    Bank bank = makeBank();
    EXPECT_THROW(bank.pokeCell(geom.rowsPerBank, 0, true), PanicError);
    EXPECT_THROW(bank.pokeCell(0, geom.bitlinesPerRow, true),
                 PanicError);
}

TEST_F(BankTest, AnalyticQueriesRejectOutOfRangeRows)
{
    Bank bank = makeBank();
    std::vector<uint64_t> resid(geom.wordsPerRow(), ~uint64_t{0});
    EXPECT_THROW(bank.quacProbabilities(geom.segmentsPerBank()),
                 PanicError);
    EXPECT_THROW(bank.earlyReadProbabilities(geom.rowsPerBank,
                                             cal.drangeReadNs),
                 PanicError);
    EXPECT_THROW(bank.racedActivateProbabilities(geom.rowsPerBank,
                                                 resid, 2.5),
                 PanicError);
    // The last row is still in range.
    EXPECT_EQ(bank.earlyReadProbabilities(geom.rowsPerBank - 1,
                                          cal.drangeReadNs).size(),
              geom.bitlinesPerRow);
    EXPECT_EQ(bank.racedActivateProbabilities(geom.rowsPerBank - 1,
                                              resid, 2.5).size(),
              geom.bitlinesPerRow);
}

TEST_F(BankTest, RacedActivateRejectsShortResidual)
{
    // The residual is indexed per bitline; anything but one whole
    // row would read past the caller's buffer.
    Bank bank = makeBank();
    std::vector<uint64_t> short_resid(geom.wordsPerRow() - 1,
                                      ~uint64_t{0});
    EXPECT_THROW(bank.racedActivateProbabilities(0, short_resid, 2.5),
                 PanicError);
    EXPECT_THROW(bank.racedActivateProbabilities(0, {}, 2.5),
                 PanicError);
}

} // anonymous namespace
} // namespace quac::dram
