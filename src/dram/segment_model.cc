#include "dram/segment_model.hh"

#include <string>

#include "common/error.hh"
#include "common/stats.hh"

namespace quac::dram
{

namespace
{

/** Raw SA offsets of the subarray holding @p segment. */
std::vector<double>
drawSaOffsetRow(const Geometry &geom, const VariationModel &var,
                uint32_t bank, uint32_t segment)
{
    std::vector<double> row(geom.bitlinesPerRow);
    var.saOffsetRowMv(bank, geom.firstRowOfSegment(segment),
                      geom.bitlinesPerRow, row.data());
    return row;
}

} // anonymous namespace

SegmentModel::SegmentModel(const Geometry &geom, const Calibration &cal,
                           const VariationModel &var, uint32_t bank,
                           uint32_t segment, double temperature_c,
                           double age_days)
    : SegmentModel(geom, cal, var, bank, segment,
                   drawSaOffsetRow(geom, var, bank, segment).data(),
                   temperature_c, age_days)
{
}

SegmentModel::SegmentModel(const Geometry &geom, const Calibration &cal,
                           const VariationModel &var, uint32_t bank,
                           uint32_t segment,
                           const double *sa_offset_row_mv,
                           double temperature_c, double age_days)
    : geom_(geom), cal_(cal), bank_(bank), segment_(segment)
{
    QUAC_ASSERT(segment < geom.segmentsPerBank(), "segment out of range");

    uint32_t nbits = geom.bitlinesPerRow;
    noiseSigmaMv_ = var.noiseSigmaMv(temperature_c);

    double seg_mean = var.segmentMeanMv(bank, segment);
    double spatial = var.spatialScale(bank, segment);
    double aging = var.agingScale(bank, segment, age_days);

    std::vector<double> chip_factor(geom.chipsPerRank);
    for (uint32_t chip = 0; chip < geom.chipsPerRank; ++chip)
        chip_factor[chip] = var.temperatureFactor(chip, temperature_c);

    uint32_t base_row = geom.firstRowOfSegment(segment);
    offsetMv_.resize(nbits);
    std::vector<double> caps(nbits);
    for (uint32_t i = 0; i < Geometry::rowsPerSegment; ++i) {
        var.cellCapRow(bank, base_row + i, nbits, caps.data());
        cap_[i].assign(caps.begin(), caps.end());
    }

    uint32_t cb_bits = geom.cacheBlockBits;
    double col_shape = 0.0;
    for (uint32_t b = 0; b < nbits; ++b) {
        if (b % cb_bits == 0)
            col_shape = var.columnShape(b / cb_bits);
        double offset = (sa_offset_row_mv[b] + seg_mean) /
                        (spatial * col_shape * aging) *
                        chip_factor[geom.chipOfBitline(b)];
        offsetMv_[b] = static_cast<float>(offset);
    }
}

std::vector<float>
SegmentModel::patternProbabilities(uint8_t pattern,
                                   const QuacWeights &weights) const
{
    uint32_t nbits = geom_.bitlinesPerRow;
    std::vector<float> probs(nbits);

    std::array<double, Geometry::rowsPerSegment> signed_w;
    for (uint32_t i = 0; i < Geometry::rowsPerSegment; ++i) {
        double sign = ((pattern >> i) & 1) ? 1.0 : -1.0;
        signed_w[i] = sign * weights.w[i] * cal_.vShareMv;
    }

    for (uint32_t b = 0; b < nbits; ++b) {
        double dev = 0.0;
        for (uint32_t i = 0; i < Geometry::rowsPerSegment; ++i)
            dev += signed_w[i] * cap_[i][b];
        probs[b] = static_cast<float>(
            probabilityOne(dev, offsetMv_[b], noiseSigmaMv_));
    }
    return probs;
}

std::vector<float>
SegmentModel::patternProbabilities(uint8_t pattern) const
{
    return patternProbabilities(
        pattern, quacWeights(cal_, 0, cal_.quacGapNs, cal_.quacGapNs));
}

std::vector<double>
SegmentModel::bitlineEntropies(uint8_t pattern,
                               const QuacWeights &weights) const
{
    std::vector<float> probs = patternProbabilities(pattern, weights);
    std::vector<double> entropies(probs.size());
    for (size_t b = 0; b < probs.size(); ++b)
        entropies[b] = binaryEntropy(probs[b]);
    return entropies;
}

double
SegmentModel::segmentEntropy(uint8_t pattern) const
{
    return segmentEntropy(
        pattern, quacWeights(cal_, 0, cal_.quacGapNs, cal_.quacGapNs));
}

double
SegmentModel::segmentEntropy(uint8_t pattern,
                             const QuacWeights &weights) const
{
    double sum = 0.0;
    for (double h : bitlineEntropies(pattern, weights))
        sum += h;
    return sum;
}

std::vector<double>
SegmentModel::cacheBlockEntropies(uint8_t pattern) const
{
    return cacheBlockEntropies(
        pattern, quacWeights(cal_, 0, cal_.quacGapNs, cal_.quacGapNs));
}

std::vector<double>
SegmentModel::cacheBlockEntropies(uint8_t pattern,
                                  const QuacWeights &weights) const
{
    return blockSums(bitlineEntropies(pattern, weights));
}

double
SegmentModel::segmentAndBlockEntropies(uint8_t pattern,
                                       std::vector<double> &blocks) const
{
    std::vector<double> bit_h = bitlineEntropies(
        pattern, quacWeights(cal_, 0, cal_.quacGapNs, cal_.quacGapNs));
    double sum = 0.0;
    for (double h : bit_h)
        sum += h;
    blocks = blockSums(bit_h);
    return sum;
}

std::vector<double>
SegmentModel::blockSums(const std::vector<double> &bitline_entropy) const
{
    uint32_t cb_bits = geom_.cacheBlockBits;
    std::vector<double> blocks(geom_.cacheBlocksPerRow(), 0.0);
    for (size_t b = 0; b < bitline_entropy.size(); ++b)
        blocks[b / cb_bits] += bitline_entropy[b];
    return blocks;
}

uint8_t
patternFromString(const char *pattern)
{
    uint8_t nibble = 0;
    for (int i = 0; i < 4; ++i) {
        char c = pattern[i];
        if (c == '\0')
            fatal("pattern string '%s' too short", pattern);
        if (c == '1')
            nibble |= static_cast<uint8_t>(1u << i);
        else if (c != '0')
            fatal("invalid pattern character '%c'", c);
    }
    if (pattern[4] != '\0')
        fatal("pattern string '%s' too long", pattern);
    return nibble;
}

std::string
patternToString(uint8_t pattern)
{
    std::string out(4, '0');
    for (int i = 0; i < 4; ++i) {
        if ((pattern >> i) & 1)
            out[i] = '1';
    }
    return out;
}

std::vector<uint8_t>
allPatterns()
{
    // Figure 8 enumerates patterns as R0 R1 R2 R3 strings counting in
    // binary: "0000", "0001", ..., "1111". The string's first bit is
    // row 0, so string order corresponds to nibble bit-reversal.
    std::vector<uint8_t> patterns;
    for (unsigned value = 0; value < 16; ++value) {
        uint8_t nibble = 0;
        for (unsigned bit = 0; bit < 4; ++bit) {
            if ((value >> (3 - bit)) & 1)
                nibble |= static_cast<uint8_t>(1u << bit);
        }
        patterns.push_back(nibble);
    }
    return patterns;
}

} // namespace quac::dram
