#include "baselines/talukder.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/stats.hh"
#include "crypto/sha256.hh"

namespace quac::baselines
{

/**
 * Candidate victim rows characterized per bank; the highest-entropy
 * one is harvested (the paper reports the average of per-module
 * *maximum* row entropies).
 */
constexpr uint32_t kVictimCandidates = 8;

/** Seed of the sense-noise stream. */
constexpr uint64_t kNoiseSeed = 1;

TalukderTrng::TalukderTrng(dram::DramModule &module, TalukderConfig cfg)
    : module_(module), cfg_(std::move(cfg)), noise_(kNoiseSeed)
{
    if (cfg_.banks.empty())
        fatal("Talukder+ needs at least one bank");
    const dram::Geometry &geom = module_.geometry();
    for (uint32_t bank : cfg_.banks) {
        if (bank >= geom.banks)
            fatal("bank %u out of range", bank);
    }
    if (cfg_.donorRow >= geom.rowsPerBank ||
        cfg_.victimRow >= geom.rowsPerBank) {
        fatal("probe rows out of range");
    }
    if (cfg_.donorRow == cfg_.victimRow)
        fatal("donor and victim rows must differ");
}

void
TalukderTrng::setup()
{
    const dram::Geometry &geom = module_.geometry();
    const dram::Calibration &cal = module_.calibration();
    plans_.clear();

    std::vector<uint64_t> donor_bits(geom.wordsPerRow(), ~uint64_t{0});

    for (uint32_t bank_id : cfg_.banks) {
        dram::Bank &bank = module_.bank(bank_id);
        bank.pokeRowFill(cfg_.donorRow, true);

        // Characterize several candidate victim rows (one segment
        // apart) and harvest the highest-entropy one, mirroring the
        // paper's use of per-module maximum row entropy.
        TalukderBankPlan plan;
        plan.bank = bank_id;
        plan.donorRow = cfg_.donorRow;
        plan.rowEntropy = -1.0;

        uint32_t cb_bits = geom.cacheBlockBits;
        for (uint32_t k = 0; k < kVictimCandidates; ++k) {
            uint32_t candidate = cfg_.victimRow +
                                 k * dram::Geometry::rowsPerSegment;
            if (candidate >= geom.rowsPerBank)
                break;
            if (geom.segmentOfRow(candidate) ==
                geom.segmentOfRow(cfg_.donorRow)) {
                continue;
            }
            bank.pokeRowFill(candidate, false);
            std::vector<float> probs = bank.racedActivateProbabilities(
                candidate, donor_bits, cal.talukderPreNs);
            double entropy = 0.0;
            for (float p : probs)
                entropy += binaryEntropy(p);
            if (entropy > plan.rowEntropy) {
                plan.rowEntropy = entropy;
                plan.victimRow = candidate;
                plan.rowProbs = std::move(probs);
            }
        }
        QUAC_ASSERT(plan.rowEntropy >= 0.0,
                    "no candidate victim rows in bank %u", bank_id);

        std::vector<double> cb_entropy(geom.cacheBlocksPerRow(), 0.0);
        for (uint32_t b = 0; b < geom.bitlinesPerRow; ++b) {
            double h = binaryEntropy(plan.rowProbs[b]);
            cb_entropy[b / cb_bits] += h;
            float p = plan.rowProbs[b];
            if (p >= 0.4f && p <= 0.6f)
                plan.strongCells.push_back(b);
        }
        plan.ranges = core::sibRanges(cb_entropy, cfg_.sibEntropyTarget);
        plans_.push_back(std::move(plan));
    }
    ready_ = true;
}

double
TalukderTrng::avgRowEntropy() const
{
    QUAC_ASSERT(!plans_.empty(), "setup() not run");
    double sum = 0.0;
    for (const TalukderBankPlan &plan : plans_)
        sum += plan.rowEntropy;
    return sum / static_cast<double>(plans_.size());
}

double
TalukderTrng::avgStrongCells() const
{
    QUAC_ASSERT(!plans_.empty(), "setup() not run");
    double sum = 0.0;
    for (const TalukderBankPlan &plan : plans_)
        sum += static_cast<double>(plan.strongCells.size());
    return sum / static_cast<double>(plans_.size());
}

uint32_t
TalukderTrng::sibPerRow() const
{
    QUAC_ASSERT(!plans_.empty(), "setup() not run");
    size_t total = 0;
    for (const TalukderBankPlan &plan : plans_)
        total += plan.ranges.size();
    return static_cast<uint32_t>(total / plans_.size());
}

uint32_t
TalukderTrng::columnsReadPerRow() const
{
    QUAC_ASSERT(!plans_.empty(), "setup() not run");
    size_t total = 0;
    for (const TalukderBankPlan &plan : plans_) {
        if (!plan.ranges.empty())
            total += plan.ranges.back().endColumn;
    }
    return static_cast<uint32_t>(total / plans_.size());
}

void
TalukderTrng::harvest()
{
    const dram::Geometry &geom = module_.geometry();
    uint32_t cb_bits = geom.cacheBlockBits;

    // One tRP-failure row harvest per bank (iid sampling from the
    // characterized probabilities; see core/sa_stream.hh).
    for (const TalukderBankPlan &plan : plans_) {
        if (cfg_.enhanced) {
            for (const core::ColumnRange &range : plan.ranges) {
                std::vector<uint8_t> raw;
                raw.reserve((range.endColumn - range.beginColumn) *
                            cb_bits / 8);
                uint8_t byte = 0;
                unsigned nbits = 0;
                for (uint32_t b = range.beginColumn * cb_bits;
                     b < range.endColumn * cb_bits; ++b) {
                    byte = static_cast<uint8_t>(
                        (byte >> 1) |
                        (noise_.bernoulli(plan.rowProbs[b]) ? 0x80
                                                            : 0));
                    if (++nbits == 8) {
                        raw.push_back(byte);
                        byte = 0;
                        nbits = 0;
                    }
                }
                Sha256::Digest digest = Sha256::hash(raw);
                buffer_.insert(buffer_.end(), digest.begin(),
                               digest.end());
            }
        } else {
            for (uint32_t cell : plan.strongCells) {
                bool bit = noise_.bernoulli(plan.rowProbs[cell]);
                bitAccum_ |= static_cast<uint64_t>(bit) << bitCount_;
                if (++bitCount_ == 8) {
                    buffer_.push_back(static_cast<uint8_t>(bitAccum_));
                    bitAccum_ = 0;
                    bitCount_ = 0;
                }
            }
        }
    }
}

void
TalukderTrng::fill(uint8_t *out, size_t len)
{
    if (!ready_)
        setup();
    size_t produced = 0;
    while (produced < len) {
        if (bufferHead_ == buffer_.size()) {
            buffer_.clear();
            bufferHead_ = 0;
            size_t guard = 0;
            while (buffer_.empty()) {
                harvest();
                if (++guard > 100000)
                    fatal("Talukder+ harvests no entropy here");
            }
        }
        size_t take = std::min(buffer_.size() - bufferHead_,
                               len - produced);
        std::copy_n(buffer_.begin() +
                        static_cast<ptrdiff_t>(bufferHead_),
                    take, out + produced);
        bufferHead_ += take;
        produced += take;
    }
}

} // namespace quac::baselines
