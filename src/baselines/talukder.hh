/**
 * @file
 * Talukder et al. (ICCE'19) reimplemented on the simulated DRAM:
 * random numbers from tRP-violated activations (paper Section 7.4.2).
 *
 * A fully-sensed donor row charges the row buffer; a precharge with
 * violated tRP leaves a residual that races the victim row's cells,
 * flipping weak cells. Basic configuration harvests the strongly
 * random cells raw; enhanced reads SHA-input-block ranges of the
 * victim row and whitens with SHA-256, with RowClone re-init.
 */

#ifndef QUAC_BASELINES_TALUKDER_HH
#define QUAC_BASELINES_TALUKDER_HH

#include <cstdint>
#include <vector>

#include "core/characterizer.hh"
#include "core/trng.hh"
#include "dram/module.hh"

namespace quac::baselines
{

/** Per-bank characterization outcome for the tRP-failure TRNG. */
struct TalukderBankPlan
{
    uint32_t bank = 0;
    uint32_t donorRow = 0;   ///< All-ones row that charges the SAs.
    uint32_t victimRow = 0;  ///< All-zeros row re-activated early.
    double rowEntropy = 0.0; ///< Shannon entropy across the row.
    /** SHA input block column ranges (enhanced). */
    std::vector<core::ColumnRange> ranges;
    /** Bitlines with P(flip) in [0.4, 0.6] (basic harvesting). */
    std::vector<uint32_t> strongCells;
    /** P(1) per bitline of the victim row after the violation. */
    std::vector<float> rowProbs;
};

/** Talukder+ configuration. */
struct TalukderConfig
{
    std::vector<uint32_t> banks = {0, 1, 2, 3};
    bool enhanced = true;
    double sibEntropyTarget = 256.0;
    uint32_t donorRow = 8;
    /** First candidate victim row. */
    uint32_t victimRow = 12;
};

/** The precharge-failure generator. */
class TalukderTrng : public core::Trng
{
  public:
    TalukderTrng(dram::DramModule &module, TalukderConfig cfg = {});

    std::string
    name() const override
    {
        return cfg_.enhanced ? "Talukder+-Enhanced"
                             : "Talukder+-Basic";
    }

    /** One-time tRP-failure characterization. */
    void setup();

    void fill(uint8_t *out, size_t len) override;

    const std::vector<TalukderBankPlan> &plans() const
    {
        return plans_;
    }

    /** Average row entropy across banks (feeds Table 2). */
    double avgRowEntropy() const;

    /** Average strongly-random cell count per row. */
    double avgStrongCells() const;

    /** SHA input blocks per harvested row (enhanced). */
    uint32_t sibPerRow() const;

    /** Cache blocks covered by the SIB ranges (schedule input). */
    uint32_t columnsReadPerRow() const;

  private:
    void harvest();

    dram::DramModule &module_;
    TalukderConfig cfg_;
    std::vector<TalukderBankPlan> plans_;
    bool ready_ = false;
    Xoshiro256pp noise_;
    std::vector<uint8_t> buffer_;
    size_t bufferHead_ = 0;
    uint64_t bitAccum_ = 0;
    unsigned bitCount_ = 0;
};

} // namespace quac::baselines

#endif // QUAC_BASELINES_TALUKDER_HH
