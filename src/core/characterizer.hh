/**
 * @file
 * One-time characterization of a module's QUAC entropy profile
 * (paper Section 6.1): per-segment entropy maps, data-pattern
 * sweeps, cache-block profiles, and the SHA-input-block column
 * ranges the TRNG reads at run time.
 */

#ifndef QUAC_CORE_CHARACTERIZER_HH
#define QUAC_CORE_CHARACTERIZER_HH

#include <cstdint>
#include <vector>

#include "dram/module.hh"
#include "dram/segment_model.hh"

namespace quac::core
{

/** Entropy (bits) measured for one segment. */
struct SegmentEntropy
{
    uint32_t segment = 0;
    double entropy = 0.0;
};

/** Sweep/selection parameters. */
struct CharacterizerConfig
{
    uint32_t bank = 0;
    /** Init pattern nibble (default "0111", the paper's best). */
    uint8_t pattern = 0b1110;
    double temperatureC = 50.0;
    double ageDays = 0.0;
    /** Evaluate every Nth segment (1 = full resolution). */
    uint32_t segmentStride = 1;
    /** Worker threads (0 = hardware concurrency). */
    unsigned threads = 0;
};

/** Per-pattern aggregate over the sampled segments (Fig 8). */
struct PatternStats
{
    uint8_t pattern = 0;
    /** Average cache-block entropy across sampled cache blocks. */
    double avgCacheBlockEntropy = 0.0;
    /** Maximum cache-block entropy observed. */
    double maxCacheBlockEntropy = 0.0;
    /** Average segment entropy. */
    double avgSegmentEntropy = 0.0;
};

/**
 * One bank's characterization: every sampled segment's entropy, the
 * highest-entropy one (the first strict maximum in segment order)
 * and that segment's per-cache-block entropy.
 */
struct BankProfile
{
    uint32_t bank = 0;
    std::vector<SegmentEntropy> segments;
    SegmentEntropy best;
    std::vector<double> bestCacheBlocks; ///< Fig 10 series.
};

/**
 * A contiguous cache-block range holding >= the target Shannon
 * entropy; one SHA-256 input block is read from each range (paper
 * Sections 5.2 and 8).
 */
struct ColumnRange
{
    uint32_t beginColumn = 0;
    uint32_t endColumn = 0;   ///< exclusive
    double entropy = 0.0;
};

/**
 * Greedily partition a row's cache blocks into contiguous ranges of
 * >= @p target bits of entropy each (left to right; a trailing
 * partial range is discarded).
 */
std::vector<ColumnRange>
sibRanges(const std::vector<double> &cache_block_entropy,
          double target = 256.0);

/**
 * Analytic characterization driver over one module.
 *
 * Every sweep is one parallel pass over the (bank, subarray) groups of
 * the sampled segments: segments of one subarray share their sense
 * amplifiers, so each task draws the subarray's SA offsets once and
 * builds its segments' models from them.
 */
class Characterizer
{
  public:
    /** Attach to a module (read-only; uses the variation oracle). */
    explicit Characterizer(const dram::DramModule &module);

    /**
     * Profile each bank of @p banks in one pass (cfg.bank is
     * ignored). Each sampled segment's bitline entropies are computed
     * once; they give both its entropy and, for the best segment,
     * the cache-block profile.
     */
    std::vector<BankProfile>
    profileBanks(const std::vector<uint32_t> &banks,
                 const CharacterizerConfig &cfg) const;

    /** Entropy of every sampled segment (Fig 9 series). */
    std::vector<SegmentEntropy>
    segmentEntropies(const CharacterizerConfig &cfg) const;

    /** The highest-entropy sampled segment. */
    SegmentEntropy bestSegment(const CharacterizerConfig &cfg) const;

    /** All sixteen data patterns over the sampled segments (Fig 8). */
    std::vector<PatternStats>
    patternSweep(const CharacterizerConfig &cfg) const;

  private:
    const dram::DramModule &module_;
};

} // namespace quac::core

#endif // QUAC_CORE_CHARACTERIZER_HH
