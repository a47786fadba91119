/**
 * @file
 * Fast analytic model of one DRAM segment under QUAC.
 *
 * Characterization sweeps (Figs 8-10, 14; Table 3) evaluate QUAC
 * entropy over thousands of (segment, pattern) points. Monte-Carlo
 * sampling through the full command path would be needlessly slow and
 * noisy: given the device model, each bitline's P(1) is a closed-form
 * function of the pattern and the variation draws. SegmentModel
 * precomputes the per-bitline variation ingredients once per segment
 * and then answers pattern queries in a few ns per bitline.
 *
 * Consistency with the command path is enforced by unit tests that
 * compare these probabilities against Bank::quacProbabilities and
 * against empirical sampling frequencies.
 */

#ifndef QUAC_DRAM_SEGMENT_MODEL_HH
#define QUAC_DRAM_SEGMENT_MODEL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/calibration.hh"
#include "dram/geometry.hh"
#include "dram/sensing.hh"
#include "dram/variation.hh"

namespace quac::dram
{

/** Precomputed per-bitline analytic view of a segment. */
class SegmentModel
{
  public:
    /**
     * @param geom module geometry.
     * @param cal calibration constants.
     * @param var module variation oracle.
     * @param bank bank index.
     * @param segment segment index within the bank.
     * @param temperature_c operating temperature.
     * @param age_days device age.
     */
    SegmentModel(const Geometry &geom, const Calibration &cal,
                 const VariationModel &var, uint32_t bank,
                 uint32_t segment, double temperature_c = 50.0,
                 double age_days = 0.0);

    /**
     * As above, with the raw sense-amplifier offsets supplied by the
     * caller: @p sa_offset_row_mv holds VariationModel::saOffsetRowMv
     * over the geom.bitlinesPerRow bitlines of the segment's
     * subarray. Segments of one subarray share their sense
     * amplifiers, so a characterization pass draws that row once per
     * subarray; the model is bit-identical to the self-drawing one.
     */
    SegmentModel(const Geometry &geom, const Calibration &cal,
                 const VariationModel &var, uint32_t bank,
                 uint32_t segment, const double *sa_offset_row_mv,
                 double temperature_c = 50.0, double age_days = 0.0);

    uint32_t segment() const { return segment_; }
    uint32_t bank() const { return bank_; }

    /**
     * Per-bitline probability of reading 1 after QUAC with the rows
     * uniformly initialized to @p pattern (bit i of the nibble fills
     * row offset i).
     */
    std::vector<float> patternProbabilities(uint8_t pattern,
                                            const QuacWeights &weights)
        const;

    /** Convenience: probabilities at the default QUAC weights. */
    std::vector<float> patternProbabilities(uint8_t pattern) const;

    /** Per-bitline Shannon entropy (bits) for a pattern. */
    std::vector<double> bitlineEntropies(uint8_t pattern,
                                         const QuacWeights &weights)
        const;

    /** Sum of bitline entropies: the segment entropy for a pattern. */
    double segmentEntropy(uint8_t pattern) const;
    double segmentEntropy(uint8_t pattern,
                          const QuacWeights &weights) const;

    /** Per-cache-block entropy sums for a pattern. */
    std::vector<double> cacheBlockEntropies(uint8_t pattern) const;
    std::vector<double> cacheBlockEntropies(uint8_t pattern,
                                            const QuacWeights &weights)
        const;

    /**
     * segmentEntropy(pattern) and, into @p blocks,
     * cacheBlockEntropies(pattern), both from one bitlineEntropies()
     * pass; bit-identical to the two separate calls.
     */
    double segmentAndBlockEntropies(uint8_t pattern,
                                    std::vector<double> &blocks) const;

    /** Effective offsets (mV) per bitline (exposed for tests). */
    const std::vector<float> &offsetsMv() const { return offsetMv_; }

    /** Thermal + race noise sigma used by this model (mV). */
    double noiseSigmaMv() const { return noiseSigmaMv_; }

  private:
    /** Per-cache-block sums of per-bitline entropies. */
    std::vector<double>
    blockSums(const std::vector<double> &bitline_entropy) const;

    const Geometry &geom_;
    const Calibration &cal_;
    uint32_t bank_;
    uint32_t segment_;
    double noiseSigmaMv_;
    /** Effective offset per bitline (all scalings applied). */
    std::vector<float> offsetMv_;
    /** Cell capacitance factors, [row offset][bitline]. */
    std::array<std::vector<float>, Geometry::rowsPerSegment> cap_;
};

/** Parse a paper-style pattern string ("0111") into a nibble. */
uint8_t patternFromString(const char *pattern);

/** Render a pattern nibble as the paper's 4-character string. */
std::string patternToString(uint8_t pattern);

/** The sixteen init patterns in Figure 8's enumeration order. */
std::vector<uint8_t> allPatterns();

} // namespace quac::dram

#endif // QUAC_DRAM_SEGMENT_MODEL_HH
