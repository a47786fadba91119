/**
 * @file
 * Tests for the QUAC-TRNG pipeline.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/error.hh"
#include "core/trng.hh"
#include "dram/segment_model.hh"
#include "nist/sts.hh"
#include "softmc/host.hh"

namespace quac::core
{
namespace
{

dram::ModuleSpec
testSpec(uint64_t seed = 2021)
{
    dram::ModuleSpec spec;
    spec.geometry = dram::Geometry::testScale();
    spec.seed = seed;
    return spec;
}

QuacTrngConfig
testConfig()
{
    QuacTrngConfig cfg;
    cfg.banks = {0, 1};
    cfg.characterizeStride = 1;
    // The reduced test geometry has ~8x fewer bitlines per segment
    // than real hardware; scale the per-block entropy target so a
    // segment still yields multiple blocks.
    cfg.sibEntropyTarget = 24.0;
    cfg.threads = 2;
    return cfg;
}

TEST(QuacTrng, SetupBuildsPlans)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    trng.setup();
    ASSERT_TRUE(trng.ready());
    ASSERT_EQ(trng.plans().size(), 2u);

    const dram::Geometry &geom = module.geometry();
    for (const auto &plan : trng.plans()) {
        EXPECT_LT(plan.segment, geom.segmentsPerBank());
        EXPECT_GT(plan.segmentEntropy, 0.0);
        EXPECT_FALSE(plan.ranges.empty());
        // Reserved rows must sit outside the QUAC segment but in the
        // same subarray (RowClone requirement).
        EXPECT_NE(geom.segmentOfRow(plan.zeroRow), plan.segment);
        EXPECT_EQ(geom.subarrayOfRow(plan.zeroRow),
                  geom.subarrayOfRow(
                      geom.firstRowOfSegment(plan.segment)));
        EXPECT_EQ(plan.oneRow, plan.zeroRow + 1);
    }
    EXPECT_EQ(trng.bitsPerIteration() % 256, 0u);
    EXPECT_GT(trng.bitsPerIteration(), 0u);
}

TEST(QuacTrng, GeneratesRequestedBytes)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    auto bytes = trng.generate(1000);
    EXPECT_EQ(bytes.size(), 1000u);
    EXPECT_GT(trng.iterations(), 0u);

    // Output should not be trivially constant.
    std::set<uint8_t> distinct(bytes.begin(), bytes.end());
    EXPECT_GT(distinct.size(), 16u);
}

TEST(QuacTrng, FillAcrossIterationBoundaries)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    trng.setup();
    size_t chunk = trng.bitsPerIteration() / 8;
    // Request a length that is not a multiple of the per-iteration
    // output so the buffer must carry a partial remainder.
    auto bytes = trng.generate(chunk + chunk / 2 + 3);
    EXPECT_EQ(bytes.size(), chunk + chunk / 2 + 3);
    EXPECT_GE(trng.iterations(), 2u);
}

TEST(QuacTrng, DeterministicForSameSeed)
{
    dram::DramModule module_a(testSpec(5));
    dram::DramModule module_b(testSpec(5));
    QuacTrng trng_a(module_a, testConfig());
    QuacTrng trng_b(module_b, testConfig());
    EXPECT_EQ(trng_a.generate(256), trng_b.generate(256));
}

TEST(QuacTrng, DifferentModulesDiffer)
{
    dram::DramModule module_a(testSpec(5));
    dram::DramModule module_b(testSpec(6));
    QuacTrng trng_a(module_a, testConfig());
    QuacTrng trng_b(module_b, testConfig());
    EXPECT_NE(trng_a.generate(256), trng_b.generate(256));
}

TEST(QuacTrng, Random256Distinct)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    auto a = trng.random256();
    auto b = trng.random256();
    EXPECT_NE(a, b) << "consecutive 256-bit outputs must differ";
}

TEST(QuacTrng, RawIterationHasExpectedSize)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    Bitstream raw = trng.rawIteration(0);
    EXPECT_EQ(raw.size(), module.geometry().bitlinesPerRow);
    // Conflicting-pattern QUAC: the raw read is a mix of 0s and 1s.
    EXPECT_GT(raw.popcount(), 0u);
    EXPECT_LT(raw.popcount(), raw.size());
}

TEST(QuacTrng, ShaOutputPassesBasicNistTests)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    Bitstream bits = trng.generateBits(1u << 16);
    EXPECT_TRUE(nist::monobit(bits).passed());
    EXPECT_TRUE(nist::runs(bits).passed());
    EXPECT_TRUE(nist::frequencyWithinBlock(bits).passed());
    EXPECT_TRUE(nist::serial(bits).passed());
}

TEST(QuacTrng, RawOutputIsBiased)
{
    // Without SHA-256, raw QUAC reads carry the deterministic
    // bitlines too; a monobit failure is expected (this is why the
    // paper post-processes).
    dram::DramModule module(testSpec());
    QuacTrngConfig cfg = testConfig();
    cfg.useSha = false;
    QuacTrng trng(module, cfg);
    Bitstream bits = trng.generateBits(1u << 15);
    EXPECT_FALSE(nist::monobit(bits).passed());
}

TEST(QuacTrng, GeneratorStateAdvances)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    auto first = trng.generate(64);
    auto second = trng.generate(64);
    EXPECT_NE(first, second);
}

TEST(QuacTrng, RejectsBadConfig)
{
    dram::DramModule module(testSpec());
    QuacTrngConfig cfg = testConfig();
    cfg.banks = {};
    EXPECT_THROW(QuacTrng(module, cfg), FatalError);
    cfg.banks = {module.geometry().banks};
    EXPECT_THROW(QuacTrng(module, cfg), FatalError);
}

TEST(QuacTrng, SerialAndParallelPipelinesByteIdentical)
{
    // The parallel multi-bank pipeline must be a pure scheduling
    // change: per-bank command streams, noise streams, and output
    // slices are independent, so output bytes cannot depend on the
    // interleaving.
    dram::DramModule module_serial(testSpec(7));
    dram::DramModule module_parallel(testSpec(7));
    QuacTrngConfig cfg = testConfig();
    cfg.banks = {0, 1, 2, 3};

    QuacTrngConfig serial_cfg = cfg;
    serial_cfg.parallelBanks = false;
    QuacTrngConfig parallel_cfg = cfg;
    parallel_cfg.parallelBanks = true;

    QuacTrng serial(module_serial, serial_cfg);
    QuacTrng parallel(module_parallel, parallel_cfg);
    serial.setup();
    parallel.setup();
    size_t len = 3 * serial.bytesPerIteration() + 11;
    EXPECT_EQ(serial.generate(len), parallel.generate(len));
}

TEST(QuacTrng, FillRequestsStraddlingIterationBoundary)
{
    // A stream drawn in awkward chunk sizes (forcing buffered
    // remainders across iteration boundaries) must equal the same
    // stream drawn in one large request (the direct-write path).
    dram::DramModule module_chunked(testSpec(9));
    dram::DramModule module_bulk(testSpec(9));
    QuacTrng chunked(module_chunked, testConfig());
    QuacTrng bulk(module_bulk, testConfig());
    chunked.setup();
    bulk.setup();

    size_t iter = chunked.bytesPerIteration();
    ASSERT_GT(iter, 0u);
    std::vector<size_t> chunks = {iter / 2 + 1, iter, 3, iter - 1,
                                  2 * iter + 5};
    std::vector<uint8_t> stream;
    for (size_t chunk : chunks) {
        auto part = chunked.generate(chunk);
        stream.insert(stream.end(), part.begin(), part.end());
    }
    EXPECT_EQ(stream, bulk.generate(stream.size()));
}

TEST(QuacTrng, SaturationFastPathIsBitIdentical)
{
    // The saturation fast-path skips the Phi batch for the RowClone
    // segment-init copies, which race the destination's random bits
    // against a full-rail residual. It must fire on all four init
    // copies per bank every iteration, and a copy must resolve to
    // exactly the bits the scalar reference oracle resolves, whatever
    // random bits the destination held.
    dram::ModuleSpec ref_spec = testSpec(13);
    ref_spec.fastSense = false;
    dram::DramModule fast_module(testSpec(13));
    dram::DramModule ref_module(std::move(ref_spec));
    QuacTrng fast(fast_module, testConfig());
    QuacTrng ref(ref_module, testConfig());
    (void)fast.generate(512);
    (void)ref.generate(512);
    ASSERT_EQ(fast.plans().size(), ref.plans().size());

    uint64_t fired = 0;
    for (const auto &plan : fast.plans())
        fired += fast_module.bank(plan.bank).saturatedRowFastPaths();
    EXPECT_GE(fired, 4u * fast.plans().size() * fast.iterations());
    for (const auto &plan : ref.plans())
        EXPECT_EQ(ref_module.bank(plan.bank).saturatedRowFastPaths(),
                  0u);

    // Replay one init on each module's last QUAC output (different
    // random bits on the two sides): the copies must agree exactly.
    const dram::Geometry &geom = fast_module.geometry();
    softmc::SoftMcHost fast_host(fast_module);
    softmc::SoftMcHost ref_host(ref_module);
    fast_host.wait(1e9); // clear of the generators' command streams
    ref_host.wait(1e9);
    bool destinations_differ = false;
    for (size_t i = 0; i < fast.plans().size(); ++i) {
        const auto &plan = fast.plans()[i];
        ASSERT_EQ(plan.segment, ref.plans()[i].segment);
        uint32_t base = geom.firstRowOfSegment(plan.segment);
        for (uint32_t r = 0; r < dram::Geometry::rowsPerSegment; ++r) {
            bool one = (testConfig().pattern >> r) & 1;
            uint32_t src = one ? plan.oneRow : plan.zeroRow;
            destinations_differ =
                destinations_differ ||
                fast_module.bank(plan.bank).peekRow(base + r) !=
                    ref_module.bank(plan.bank).peekRow(base + r);
            fast_host.rowCloneCopy(plan.bank, src, base + r);
            ref_host.rowCloneCopy(plan.bank, src, base + r);
            EXPECT_EQ(fast_module.bank(plan.bank).peekRow(base + r),
                      ref_module.bank(plan.bank).peekRow(base + r))
                << "bank " << plan.bank << " row " << base + r;
            EXPECT_EQ(fast_module.bank(plan.bank).peekRow(base + r),
                      fast_module.bank(plan.bank).peekRow(src));
        }
    }
    EXPECT_TRUE(destinations_differ)
        << "the two sides' last QUAC outputs should differ";
}

TEST(QuacTrng, PreferredChunkMatchesIterationOutput)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    size_t chunk = trng.preferredChunkBytes();
    ASSERT_TRUE(trng.ready()) << "preferredChunkBytes must set up";
    EXPECT_EQ(chunk, trng.bytesPerIteration());
    EXPECT_EQ(chunk * 8, trng.bitsPerIteration());
}

TEST(QuacTrng, RejectsDuplicateBanks)
{
    dram::DramModule module(testSpec());
    QuacTrngConfig cfg = testConfig();
    cfg.banks = {0, 1, 0};
    EXPECT_THROW(QuacTrng(module, cfg), FatalError);
}

TEST(QuacTrng, RecharacterizeAfterTemperatureChange)
{
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    trng.setup();
    auto plans_cold = trng.plans();
    module.setTemperature(85.0);
    trng.recharacterize();
    ASSERT_TRUE(trng.ready());
    // The hot characterization must replace every bank's plan: kept
    // 50 C plans would still generate, but with stale estimates.
    const auto &plans_hot = trng.plans();
    ASSERT_EQ(plans_hot.size(), plans_cold.size());
    for (size_t i = 0; i < plans_hot.size(); ++i) {
        EXPECT_NE(plans_hot[i].segmentEntropy,
                  plans_cold[i].segmentEntropy)
            << "bank plan " << i;
    }
    auto bytes = trng.generate(128);
    EXPECT_EQ(bytes.size(), 128u);
}

TEST(QuacTrng, PlansMatchPerSegmentReference)
{
    // setup() takes its plans from one grouped characterization pass;
    // they must equal the plans built from one self-drawing model per
    // sampled segment (first strict maximum, then its block profile).
    dram::DramModule module(testSpec(77));
    QuacTrngConfig cfg = testConfig();
    cfg.banks = {3, 0, 5};
    cfg.characterizeStride = 4;
    QuacTrng trng(module, cfg);
    trng.setup();
    const dram::Geometry &geom = module.geometry();
    ASSERT_EQ(trng.plans().size(), cfg.banks.size());
    for (size_t i = 0; i < cfg.banks.size(); ++i) {
        uint32_t best = 0;
        double best_h = 0.0;
        std::vector<double> best_blocks;
        for (uint32_t s = 0; s < geom.segmentsPerBank();
             s += cfg.characterizeStride) {
            dram::SegmentModel model(geom, module.calibration(),
                                     module.variation(), cfg.banks[i], s);
            double h = model.segmentEntropy(cfg.pattern);
            if (s == 0 || h > best_h) {
                best = s;
                best_h = h;
                best_blocks = model.cacheBlockEntropies(cfg.pattern);
            }
        }
        const QuacTrng::BankPlan &plan = trng.plans()[i];
        EXPECT_EQ(plan.bank, cfg.banks[i]);
        EXPECT_EQ(plan.segment, best);
        EXPECT_EQ(plan.segmentEntropy, best_h);
        auto ranges = sibRanges(best_blocks, cfg.sibEntropyTarget);
        ASSERT_EQ(plan.ranges.size(), ranges.size());
        for (size_t r = 0; r < ranges.size(); ++r) {
            EXPECT_EQ(plan.ranges[r].beginColumn, ranges[r].beginColumn);
            EXPECT_EQ(plan.ranges[r].endColumn, ranges[r].endColumn);
            EXPECT_EQ(plan.ranges[r].entropy, ranges[r].entropy);
        }
    }
}

TEST(QuacTrng, EachBankCachesTwoOffsetSegments)
{
    // An iteration senses two segments per bank: the reserved source
    // rows' segment (RowClone copies) and the QUAC segment. The bank
    // caches SA offsets per segment, so its six rows need two entries.
    dram::DramModule module(testSpec());
    QuacTrng trng(module, testConfig());
    (void)trng.generate(4 * trng.preferredChunkBytes());
    for (const auto &plan : trng.plans()) {
        EXPECT_EQ(module.bank(plan.bank).offsetCacheSize(), 2u);
        EXPECT_EQ(module.bank(plan.bank).capCacheSize(), 6u);
    }
    EXPECT_EQ(module.bank(7).offsetCacheSize(), 0u);
}

} // anonymous namespace
} // namespace quac::core
