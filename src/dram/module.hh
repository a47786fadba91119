/**
 * @file
 * Top-level simulated DDR4 module (one rank of eight x8 chips).
 */

#ifndef QUAC_DRAM_MODULE_HH
#define QUAC_DRAM_MODULE_HH

#include <string>
#include <vector>

#include "dram/bank.hh"
#include "dram/calibration.hh"
#include "dram/command.hh"
#include "dram/geometry.hh"
#include "dram/timing.hh"
#include "dram/variation.hh"

namespace quac::dram
{

/** Everything needed to instantiate one simulated module. */
struct ModuleSpec
{
    /** Short display name (e.g. "M1"). */
    std::string name = "SIM";
    /** Module part identifier (Table 3). */
    std::string moduleId = "SIM-MODULE";
    /** DRAM chip identifier (Table 3). */
    std::string chipId = "SIM-CHIP";
    /** Interface transfer rate in MT/s. */
    uint32_t transferRate = 2400;
    /** Module capacity in GB (informational). */
    double capacityGB = 4.0;

    Geometry geometry = Geometry::paperScale();
    Calibration calibration = {};

    /** Per-module variation seed (distinct seeds = distinct parts). */
    uint64_t seed = 1;
    /** Entropy level multiplier (calibrated against Table 3). */
    double entropyScale = 1.0;
    /** Spatial wave amplitude multiplier (max/avg entropy shaping). */
    double waveScale = 1.0;
    /** Signed 30-day entropy drift coefficient. */
    double agingDrift30d = 0.0;

    /** Initial operating temperature (degC). */
    double temperatureC = 50.0;
    /** Initial device age in days. */
    double ageDays = 0.0;
    /**
     * Resolve sensing with the batched SIMD kernel (vectorized Phi
     * approximation, bulk uniform draws, word-packed bit
     * resolution). Statistically indistinguishable from the scalar
     * reference path and bit-identical on the guardbanded single-row
     * path; disable to select the scalar erfc/per-bit-draw oracle.
     */
    bool fastSense = true;
};

/**
 * A simulated DDR4 module: banks plus shared variation/thermal
 * context, driven through a timed command interface.
 */
class DramModule
{
  public:
    explicit DramModule(ModuleSpec spec);

    DramModule(const DramModule &) = delete;
    DramModule &operator=(const DramModule &) = delete;

    const ModuleSpec &spec() const { return spec_; }
    const Geometry &geometry() const { return spec_.geometry; }
    const Calibration &calibration() const { return spec_.calibration; }
    const VariationModel &variation() const { return variation_; }

    /** JEDEC timing set at this module's transfer rate. */
    TimingParams timing() const
    {
        return TimingParams::ddr4(spec_.transferRate);
    }

    uint32_t bankCount() const { return spec_.geometry.banks; }
    Bank &bank(uint32_t index);
    const Bank &bank(uint32_t index) const;

    /** Change the operating temperature (degC). */
    void setTemperature(double temperature_c);
    double temperature() const { return ctx_.temperatureC; }

    /** Change the device age (days since characterization). */
    void setAgeDays(double age_days);
    double ageDays() const { return ctx_.ageDays; }

    /** @name Timed command interface */
    /**@{*/
    void act(uint32_t bank, uint32_t row, double t);
    void pre(uint32_t bank, double t);
    std::vector<uint64_t> readBlock(uint32_t bank, uint32_t column,
                                    double t);
    /** Zero-copy readBlock(): @p dst holds cacheBlockBits / 64 words. */
    void readBlockInto(uint32_t bank, uint32_t column, uint64_t *dst,
                       double t);
    void writeBlock(uint32_t bank, uint32_t column,
                    const std::vector<uint64_t> &data, double t);

    /** Dispatch a Command struct (RD data is discarded). */
    void issue(const Command &cmd);
    /**@}*/

  private:
    ModuleSpec spec_;
    VariationModel variation_;
    BankContext ctx_;
    std::vector<Bank> banks_;
};

} // namespace quac::dram

#endif // QUAC_DRAM_MODULE_HH
