/**
 * @file
 * D-RaNGe (Kim et al., HPCA'19) reimplemented on the simulated DRAM:
 * random numbers from tRCD-violated reads (paper Section 7.4.1).
 *
 * Basic configuration: harvest only the handful of strongly
 * metastable "TRNG cells" in the best cache block (up to ~4 per
 * block). Enhanced configuration (the paper's throughput-optimized
 * variant): read the whole best cache block, accumulate reads until
 * 256 bits of Shannon entropy, and whiten with SHA-256.
 */

#ifndef QUAC_BASELINES_DRANGE_HH
#define QUAC_BASELINES_DRANGE_HH

#include <cstdint>
#include <vector>

#include "core/trng.hh"
#include "dram/module.hh"

namespace quac::baselines
{

/** Per-bank characterization outcome for D-RaNGe. */
struct DRangeBankPlan
{
    uint32_t bank = 0;
    uint32_t row = 0;          ///< Probed row (kept all-zeros).
    uint32_t bestColumn = 0;   ///< Highest-entropy cache block.
    double blockEntropy = 0.0; ///< Shannon entropy of that block.
    /** Bit offsets within the block with P(1) in [0.4, 0.6]. */
    std::vector<uint32_t> trngCells;
    /** P(1) for every bit of the best block. */
    std::vector<float> blockProbs;
};

/** D-RaNGe configuration. */
struct DRangeConfig
{
    std::vector<uint32_t> banks = {0, 1, 2, 3};
    /** Enhanced = whole-block harvesting + SHA-256. */
    bool enhanced = true;
    double sibEntropyTarget = 256.0;
};

/** The D-RaNGe generator. */
class DRangeTrng : public core::Trng
{
  public:
    DRangeTrng(dram::DramModule &module, DRangeConfig cfg = {});

    std::string
    name() const override
    {
        return cfg_.enhanced ? "D-RaNGe-Enhanced" : "D-RaNGe-Basic";
    }

    /** One-time tRCD-failure characterization. */
    void setup();

    void fill(uint8_t *out, size_t len) override;

    const std::vector<DRangeBankPlan> &plans() const { return plans_; }

    /** Average best-block entropy across banks (feeds Table 2). */
    double avgBlockEntropy() const;

    /** Average TRNG-cell count per best block. */
    double avgTrngCells() const;

    /** Reduced-tRCD accesses needed per 256-bit number (enhanced). */
    uint32_t accessesPerNumber() const;

  private:
    void harvest();

    dram::DramModule &module_;
    DRangeConfig cfg_;
    std::vector<DRangeBankPlan> plans_;
    bool ready_ = false;
    Xoshiro256pp noise_;
    std::vector<uint8_t> buffer_;
    size_t bufferHead_ = 0;
    /** Basic-mode partial byte accumulator. */
    uint64_t bitAccum_ = 0;
    unsigned bitCount_ = 0;
};

} // namespace quac::baselines

#endif // QUAC_BASELINES_DRANGE_HH
