/**
 * @file
 * Regression tests for the batched SIMD sensing kernel
 * (ModuleSpec::fastSense): probability agreement with the scalar
 * reference oracle, exact degenerate fast exits, bit-identical
 * guardbanded sensing, statistical fidelity of the resolved bits,
 * the saturation fast-path against the scalar reference oracle,
 * coherence of the oracle-row caches across temperature and age
 * changes, and second-chance eviction of the sensing caches.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "dram/module.hh"
#include "dram/sensing.hh"
#include "softmc/host.hh"

namespace quac::dram
{
namespace
{

ModuleSpec
specWithSense(bool fast_sense)
{
    ModuleSpec spec;
    spec.geometry = Geometry::testScale();
    spec.seed = 7;
    spec.fastSense = fast_sense;
    return spec;
}

/** Re-init a segment and run one QUAC through the command path. */
void
runQuac(DramModule &module, softmc::SoftMcHost &host, uint32_t segment,
        uint8_t pattern, std::vector<uint64_t> &row)
{
    module.bank(0).pokeSegmentPattern(segment, pattern);
    host.quac(0, segment);
    host.readOpenRowInto(0, row.data());
    host.preObeyed(0);
}

TEST(FastSense, ProbabilitiesMatchReferenceOracle)
{
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    for (uint8_t pattern : {0b1110, 0b0110, 0b0001, 0b0000}) {
        fast.bank(0).pokeSegmentPattern(3, pattern);
        ref.bank(0).pokeSegmentPattern(3, pattern);
        std::vector<float> pf = fast.bank(0).quacProbabilities(3);
        std::vector<float> pr = ref.bank(0).quacProbabilities(3);
        ASSERT_EQ(pf.size(), pr.size());
        for (size_t b = 0; b < pf.size(); ++b) {
            ASSERT_NEAR(pf[b], pr[b], 1e-5)
                << "pattern " << int(pattern) << " bitline " << b;
        }
    }
}

TEST(FastSense, DegenerateProbabilitiesSnapExactly)
{
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    // All-zeros / all-ones patterns put every bitline deep in a tail.
    for (uint8_t pattern : {0b0000, 0b1111}) {
        fast.bank(0).pokeSegmentPattern(5, pattern);
        ref.bank(0).pokeSegmentPattern(5, pattern);
        std::vector<float> pf = fast.bank(0).quacProbabilities(5);
        std::vector<float> pr = ref.bank(0).quacProbabilities(5);
        for (size_t b = 0; b < pf.size(); ++b) {
            if (pr[b] <= 1e-9f)
                ASSERT_EQ(pf[b], 0.0f) << "bitline " << b;
            else if (pr[b] >= 1.0f - 1e-9f)
                ASSERT_EQ(pf[b], 1.0f) << "bitline " << b;
        }
    }
}

TEST(FastSense, GuardbandedSingleRowSensingBitIdentical)
{
    // Obeyed-timing activations never touch the noise stream; the
    // fast and reference paths must agree bit for bit.
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    for (DramModule *m : {&fast, &ref}) {
        for (uint32_t b = 0; b < m->geometry().bitlinesPerRow; b += 3)
            m->bank(1).pokeCell(40, b, true);
    }
    softmc::SoftMcHost fast_host(fast);
    softmc::SoftMcHost ref_host(ref);
    fast_host.actObeyed(1, 40);
    ref_host.actObeyed(1, 40);
    std::vector<uint64_t> fast_row = fast_host.readOpenRow(1);
    std::vector<uint64_t> ref_row = ref_host.readOpenRow(1);
    EXPECT_EQ(fast_row, ref_row);
    // And the guardbanded read reproduces the cell contents exactly.
    EXPECT_EQ(fast_row, fast.bank(1).peekRow(40));
}

TEST(FastSense, ResolvedBitBiasTracksReferenceProbabilities)
{
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    softmc::SoftMcHost host(fast);

    const uint32_t segment = 5;
    const uint8_t pattern = 0b1110;
    ref.bank(0).pokeSegmentPattern(segment, pattern);
    std::vector<float> probs = ref.bank(0).quacProbabilities(segment);

    const int trials = 3000;
    uint32_t nbits = fast.geometry().bitlinesPerRow;
    std::vector<uint64_t> row(fast.geometry().wordsPerRow());
    std::vector<uint32_t> ones(nbits, 0);
    for (int t = 0; t < trials; ++t) {
        runQuac(fast, host, segment, pattern, row);
        for (uint32_t b = 0; b < nbits; ++b)
            ones[b] += (row[b / 64] >> (b % 64)) & 1;
    }

    // Per-bitline binomial z-test against the reference-path
    // probabilities, plus slack for the kernel's approximation error.
    double worst = 0.0;
    for (uint32_t b = 0; b < nbits; ++b) {
        double p = probs[b];
        double freq = static_cast<double>(ones[b]) / trials;
        double sd = std::sqrt(p * (1.0 - p) / trials);
        double tol = 6.0 * sd + 2e-3;
        ASSERT_NEAR(freq, p, tol) << "bitline " << b;
        worst = std::max(worst, std::fabs(freq - p));
    }
    // Sanity: the segment is metastable somewhere, so the test has
    // teeth (some bitlines genuinely draw).
    EXPECT_GT(worst, 0.0);
}

TEST(FastSense, DegenerateFastExitsAreConstantAcrossTrials)
{
    DramModule fast(specWithSense(true));
    softmc::SoftMcHost host(fast);

    const uint32_t segment = 9;
    const uint8_t pattern = 0b1110;
    fast.bank(0).pokeSegmentPattern(segment, pattern);
    std::vector<float> probs = fast.bank(0).quacProbabilities(segment);

    uint32_t nbits = fast.geometry().bitlinesPerRow;
    std::vector<uint64_t> row(fast.geometry().wordsPerRow());
    uint32_t degenerate = 0;
    for (int t = 0; t < 64; ++t) {
        runQuac(fast, host, segment, pattern, row);
        for (uint32_t b = 0; b < nbits; ++b) {
            if (probs[b] != 0.0f && probs[b] != 1.0f)
                continue;
            bool expect = probs[b] == 1.0f;
            ASSERT_EQ(((row[b / 64] >> (b % 64)) & 1) != 0, expect)
                << "trial " << t << " bitline " << b;
            if (t == 0)
                ++degenerate;
        }
    }
    // The balanced pattern still leaves most bitlines degenerate.
    EXPECT_GT(degenerate, nbits / 2);
}

/** Fill @p row with a deterministic pseudo-random bit pattern. */
void
pokeNoiseRow(Bank &bank, uint32_t row, uint32_t nbits, uint64_t salt)
{
    for (uint32_t b = 0; b < nbits; ++b) {
        uint64_t h = (salt + b) * 0x9E3779B97F4A7C15ULL;
        bank.pokeCell(row, b, (h >> 61) & 1);
    }
}

/**
 * A metastable QUAC's probability rows agree between the fast kernel
 * and the scalar reference oracle (the check every non-saturated row
 * is held to).
 */
void
expectQuacProbabilitiesAgree(DramModule &fast, DramModule &ref,
                             uint32_t segment, uint8_t pattern)
{
    fast.bank(0).pokeSegmentPattern(segment, pattern);
    ref.bank(0).pokeSegmentPattern(segment, pattern);
    std::vector<float> pf = fast.bank(0).quacProbabilities(segment);
    std::vector<float> pr = ref.bank(0).quacProbabilities(segment);
    ASSERT_EQ(pf.size(), pr.size());
    for (size_t b = 0; b < pf.size(); ++b)
        ASSERT_NEAR(pf[b], pr[b], 1e-5) << "bitline " << b;
}

/**
 * RowClone onto a noise-filled destination, then one metastable QUAC.
 * Returns {copied row, QUAC row}. With @p clone false the copy is
 * skipped, which gives the QUAC row of an untouched noise stream.
 */
std::vector<std::vector<uint64_t>>
cloneThenQuac(DramModule &module, bool constant_source, bool clone)
{
    uint32_t nbits = module.geometry().bitlinesPerRow;
    softmc::SoftMcHost host(module);
    if (constant_source)
        host.writeRowFill(0, 8, true); // all-ones source (segment 2)
    else
        pokeNoiseRow(module.bank(0), 8, nbits, 7); // mixed source
    pokeNoiseRow(module.bank(0), 16, nbits, 99); // dst, segment 4
    if (clone)
        host.rowCloneCopy(0, 8, 16);
    std::vector<uint64_t> quac_row(module.geometry().wordsPerRow());
    runQuac(module, host, 9, 0b1110, quac_row);
    return {module.bank(0).peekRow(16), quac_row};
}

/**
 * The saturated RowClone must copy the same bits on the fast path
 * and on the scalar reference path, and neither may draw a uniform
 * for it: each module's follow-up QUAC equals that of a twin that
 * skipped the copy. Only the fast path counts a saturated resolve.
 */
void
expectSaturatedCloneIdentical(bool constant_source)
{
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    auto fast_rows = cloneThenQuac(fast, constant_source, true);
    auto ref_rows = cloneThenQuac(ref, constant_source, true);
    EXPECT_EQ(fast_rows[0], ref_rows[0]) << "RowClone rows differ";
    EXPECT_EQ(fast_rows[0], fast.bank(0).peekRow(8))
        << "RowClone must have copied the source";
    EXPECT_GT(fast.bank(0).saturatedRowFastPaths(), 0u);
    EXPECT_GT(fast.bank(0).residRaceFastPaths(), 0u);
    EXPECT_EQ(ref.bank(0).saturatedRowFastPaths(), 0u);
    EXPECT_EQ(ref.bank(0).residRaceFastPaths(), 0u);

    DramModule fast_twin(specWithSense(true));
    DramModule ref_twin(specWithSense(false));
    EXPECT_EQ(fast_rows[1],
              cloneThenQuac(fast_twin, constant_source, false)[1])
        << "fast path drew uniforms for the saturated copy";
    EXPECT_EQ(ref_rows[1],
              cloneThenQuac(ref_twin, constant_source, false)[1])
        << "reference path drew uniforms for the saturated copy";

    expectQuacProbabilitiesAgree(fast, ref, 9, 0b1110);
}

TEST(SaturationFastPath, RowCloneCopyBitIdenticalAndCounted)
{
    // RowClone from a constant source row onto random destination
    // contents: the full-rail residual saturates every bitline, so
    // the fast-path row must equal the reference oracle's bit for
    // bit -- and leave the noise stream untouched either way.
    expectSaturatedCloneIdentical(true);
}

TEST(SaturationFastPath, SaturatedProbabilityRowsAreExactConstants)
{
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    uint32_t nbits = fast.geometry().bitlinesPerRow;

    // Full-rail all-ones residual racing an unwritten row: every
    // bitline lands >= saturationZ sigma into the 1 tail.
    std::vector<uint64_t> ones(fast.geometry().wordsPerRow(),
                               ~uint64_t{0});
    std::vector<uint64_t> zeros(fast.geometry().wordsPerRow(), 0);
    for (uint32_t row : {20u, 21u}) {
        auto pf = fast.bank(0).racedActivateProbabilities(row, ones,
                                                          2.5);
        auto pr = ref.bank(0).racedActivateProbabilities(row, ones,
                                                         2.5);
        ASSERT_EQ(pf.size(), nbits);
        EXPECT_EQ(pf, pr);
        for (uint32_t b = 0; b < nbits; ++b)
            ASSERT_EQ(pf[b], 1.0f) << "bitline " << b;

        // The scalar erfc keeps the float of Phi(-z) in the 0 tail;
        // the resolvers treat anything <= degenerateProbability as a
        // certain 0, so both sides resolve the same bits.
        auto zf = fast.bank(0).racedActivateProbabilities(row, zeros,
                                                          2.5);
        auto zr = ref.bank(0).racedActivateProbabilities(row, zeros,
                                                         2.5);
        for (uint32_t b = 0; b < nbits; ++b) {
            ASSERT_EQ(zf[b], 0.0f) << "bitline " << b;
            ASSERT_LE(zr[b], degenerateProbability) << "bitline " << b;
        }
    }
    EXPECT_GT(fast.bank(0).saturatedRowFastPaths(), 0u);
    EXPECT_EQ(ref.bank(0).saturatedRowFastPaths(), 0u);

    // A balanced QUAC is metastable: the fast-path must not fire.
    uint64_t fired = fast.bank(0).saturatedRowFastPaths();
    fast.bank(0).pokeSegmentPattern(6, 0b1110);
    auto quac = fast.bank(0).quacProbabilities(6);
    EXPECT_EQ(fast.bank(0).saturatedRowFastPaths(), fired);
    bool metastable = false;
    for (float p : quac)
        metastable = metastable || (p > 0.0f && p < 1.0f);
    EXPECT_TRUE(metastable);
}

TEST(SaturationFastPath, MixedResidualRaceResolvesFromResidualBits)
{
    // RowClone from a MIXED-content source row: the residual bits
    // span both tails, so the whole-row saturation test can never
    // fire -- only the residual-dominated race path can skip the
    // probability row. It must copy the same bits as the reference
    // oracle (whose per-bitline degenerate exits it reproduces) with
    // no draws on either side.
    expectSaturatedCloneIdentical(false);
}

TEST(SaturationFastPath, DecayedResidualRaceStaysOnFullPath)
{
    // Stretch the PRE -> ACT gap so the residual decays to barely
    // above the race threshold: the cells' pull dominates, the
    // saturation margin cannot hold, and the race must resolve
    // through the full probability path, whose row agrees with the
    // reference oracle's.
    DramModule fast(specWithSense(true));
    DramModule ref(specWithSense(false));
    uint32_t nbits = fast.geometry().bitlinesPerRow;
    const dram::Calibration &cal = fast.calibration();
    // railMv * exp(-10 / tauEqNs) ~ 2 mV: still a race, far from
    // dominating the ~singleRowKickMv cell pull.
    const double gap_ns = 10.0;

    for (DramModule *module : {&fast, &ref}) {
        softmc::SoftMcHost host(*module);
        host.writeRowFill(0, 8, true);
        pokeNoiseRow(module->bank(0), 16, nbits, 31);
        host.act(0, 8);
        host.wait(cal.rowCloneSrcOpenNs);
        host.pre(0);
        host.wait(gap_ns);
        host.act(0, 16);
        host.wait(host.timing().tRAS);
        host.preObeyed(0);
    }
    EXPECT_EQ(fast.bank(0).residRaceFastPaths(), 0u);
    EXPECT_EQ(ref.bank(0).residRaceFastPaths(), 0u);

    // The same race, analytically, on a fresh destination row.
    std::vector<uint64_t> ones(fast.geometry().wordsPerRow(),
                               ~uint64_t{0});
    pokeNoiseRow(fast.bank(0), 24, nbits, 31);
    pokeNoiseRow(ref.bank(0), 24, nbits, 31);
    uint64_t fired = fast.bank(0).saturatedRowFastPaths();
    auto pf = fast.bank(0).racedActivateProbabilities(24, ones, gap_ns);
    auto pr = ref.bank(0).racedActivateProbabilities(24, ones, gap_ns);
    EXPECT_EQ(fast.bank(0).saturatedRowFastPaths(), fired);
    ASSERT_EQ(pf.size(), pr.size());
    bool metastable = false;
    for (uint32_t b = 0; b < nbits; ++b) {
        ASSERT_NEAR(pf[b], pr[b], 1e-5) << "bitline " << b;
        metastable = metastable || (pr[b] > 0.0f && pr[b] < 1.0f);
    }
    EXPECT_TRUE(metastable);
}

/** Module at the test spec's seed, built at the given point. */
ModuleSpec
specAt(double temperature_c, double age_days)
{
    ModuleSpec spec = specWithSense(true);
    spec.temperatureC = temperature_c;
    spec.ageDays = age_days;
    return spec;
}

TEST(SenseCacheCoherence, RetunedModuleMatchesFreshModule)
{
    // The oracle-row caches key SA offsets by temperature and age.
    // Warm them at 50 degC / day 0 past both capacities (so eviction
    // runs), then retune the temperature, then the age: after each
    // step every analytic query must equal that of a module built at
    // the new operating point. The queries draw no noise, so the
    // equality is exact.
    const uint32_t segments = 12; // 12 offset segments, 48 cap rows
    const uint32_t first_row = 64;
    // Early-read/raced rows: 96 cap rows over 24 offset segments.
    const uint32_t rows = 96;
    static_assert(segments * Geometry::rowsPerSegment >
                  Bank::capCacheCapacity);
    static_assert(segments + rows / Geometry::rowsPerSegment >
                  Bank::offsetCacheCapacity);

    DramModule retuned(specAt(50.0, 0.0));
    DramModule fresh_hot(specAt(85.0, 0.0));
    DramModule fresh_aged(specAt(85.0, 30.0));
    uint32_t nbits = retuned.geometry().bitlinesPerRow;
    std::vector<uint64_t> resid(retuned.geometry().wordsPerRow());
    for (size_t w = 0; w < resid.size(); ++w)
        resid[w] = 0x9E3779B97F4A7C15ULL * (w + 1);
    for (DramModule *module : {&retuned, &fresh_hot, &fresh_aged}) {
        for (uint32_t seg = 0; seg < segments; ++seg)
            module->bank(0).pokeSegmentPattern(seg, 0b1110);
        for (uint32_t row = first_row; row < first_row + rows; ++row)
            pokeNoiseRow(module->bank(0), row, nbits, row);
    }

    // One query per segment, then two per row. Each pass runs the
    // sequence in the opposite order of the previous one, so it
    // starts on the entries the previous pass left resident.
    const Calibration &cal = retuned.calibration();
    auto queryAll = [&](Bank &bank, bool reverse) {
        size_t count = segments + 2 * rows;
        std::vector<std::vector<float>> out;
        for (size_t k = 0; k < count; ++k) {
            size_t q = reverse ? count - 1 - k : k;
            if (q < segments) {
                out.push_back(
                    bank.quacProbabilities(static_cast<uint32_t>(q)));
                continue;
            }
            uint32_t row =
                first_row + static_cast<uint32_t>(q - segments) / 2;
            if ((q - segments) % 2 == 0)
                out.push_back(
                    bank.earlyReadProbabilities(row, cal.drangeReadNs));
            else
                out.push_back(
                    bank.racedActivateProbabilities(row, resid, 10.0));
        }
        return out;
    };
    queryAll(retuned.bank(0), false); // warm at 50 degC, day 0
    retuned.setTemperature(85.0);
    EXPECT_EQ(queryAll(retuned.bank(0), true),
              queryAll(fresh_hot.bank(0), true))
        << "stale offsets after a temperature change";
    retuned.setAgeDays(30.0);
    EXPECT_EQ(queryAll(retuned.bank(0), false),
              queryAll(fresh_aged.bank(0), false))
        << "stale offsets after an age change";
}

TEST(SenseCacheCoherence, RowsOfOneSegmentMatchFreshModules)
{
    // SA offsets are cached per segment: the first query on a row
    // fills the entry that the segment's other rows then reuse. Each
    // query on the warm bank must equal the same query on a module
    // that has never sensed anything, whichever row came first; rows
    // of the neighbouring segments 16 and 18 interleave so that
    // entries shared too widely would show.
    const uint32_t segment = 17;
    const uint32_t first = segment * Geometry::rowsPerSegment;
    const uint32_t order[] = {first + 2, first - 1, first,
                              first + 4, first + 3, first + 1};
    auto poke = [&](DramModule &module) {
        uint32_t nbits = module.geometry().bitlinesPerRow;
        for (uint32_t row : order)
            pokeNoiseRow(module.bank(0), row, nbits, 3 * row + 1);
    };
    DramModule warm(specAt(70.0, 0.0));
    poke(warm);
    const Calibration &cal = warm.calibration();
    std::vector<uint64_t> resid(warm.geometry().wordsPerRow());
    for (size_t w = 0; w < resid.size(); ++w)
        resid[w] = 0xD1B54A32D192ED03ULL * (w + 3);
    for (uint32_t row : order) {
        DramModule fresh(specAt(70.0, 0.0));
        poke(fresh);
        EXPECT_EQ(warm.bank(0).earlyReadProbabilities(row,
                                                      cal.drangeReadNs),
                  fresh.bank(0).earlyReadProbabilities(row,
                                                       cal.drangeReadNs))
            << "row " << row;
        EXPECT_EQ(warm.bank(0).racedActivateProbabilities(row, resid, 10.0),
                  fresh.bank(0).racedActivateProbabilities(row, resid,
                                                           10.0))
            << "row " << row;
    }
    EXPECT_EQ(warm.bank(0).offsetCacheSize(), 3u);
    EXPECT_EQ(warm.bank(0).capCacheSize(), 6u);
}

TEST(SenseCacheEviction, SecondChanceKeepsHotEntry)
{
    DramModule module(specWithSense(true));
    softmc::SoftMcHost host(module);
    Bank &bank = module.bank(0);
    std::vector<uint64_t> row(module.geometry().wordsPerRow());

    const uint32_t hot_segment = 1;
    runQuac(module, host, hot_segment, 0b1110, row); // insert hot entry

    // Push far more distinct sensing setups than the capacity through
    // the cache, touching the hot entry between batches so every
    // second-chance sweep sees it marked.
    const uint8_t patterns[] = {0b0110, 0b1001, 0b0101, 0b1010};
    for (int round = 0; round < 4; ++round) {
        for (uint32_t seg = 2; seg < 52; ++seg) {
            runQuac(module, host, seg, patterns[round], row);
            if (seg % 10 == 0)
                runQuac(module, host, hot_segment, 0b1110, row);
        }
    }
    EXPECT_LE(bank.probCacheSize(), Bank::probCacheCapacity);
    EXPECT_GT(bank.probCacheMisses(), Bank::probCacheCapacity);

    // The hot entry must have survived every eviction sweep: another
    // replay hits the cache instead of recomputing.
    uint64_t hits_before = bank.probCacheHits();
    runQuac(module, host, hot_segment, 0b1110, row);
    EXPECT_EQ(bank.probCacheHits(), hits_before + 1);
}

TEST(SenseCacheEviction, CapRowValuesStableAcrossEvictionChurn)
{
    // Regression for the dangling-reference hazard: a QUAC gathers
    // pointers to four cap-row entries at once, so eviction must only
    // run before the gather. Churn the cache past its capacity with
    // analytic queries and check a replayed query is unchanged.
    DramModule module(specWithSense(true));
    Bank &bank = module.bank(0);
    for (uint32_t seg = 0; seg < 16; ++seg)
        bank.pokeSegmentPattern(seg, 0b1110);

    std::vector<float> first = bank.quacProbabilities(0);
    for (int round = 0; round < 2; ++round) {
        for (uint32_t seg = 0; seg < 16; ++seg)
            (void)bank.quacProbabilities(seg); // 64 distinct cap rows
    }
    EXPECT_LE(bank.capCacheSize(),
              Bank::capCacheCapacity + Geometry::rowsPerSegment);
    EXPECT_EQ(bank.quacProbabilities(0), first);
}

} // anonymous namespace
} // namespace quac::dram
