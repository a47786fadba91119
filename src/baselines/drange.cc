#include "baselines/drange.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/stats.hh"
#include "crypto/sha256.hh"

namespace quac::baselines
{

/** Row probed in each bank. */
constexpr uint32_t kProbeRow = 8;

/** Seed of the sense-noise stream. */
constexpr uint64_t kNoiseSeed = 1;

DRangeTrng::DRangeTrng(dram::DramModule &module, DRangeConfig cfg)
    : module_(module), cfg_(std::move(cfg)), noise_(kNoiseSeed)
{
    if (cfg_.banks.empty())
        fatal("D-RaNGe needs at least one bank");
    for (uint32_t bank : cfg_.banks) {
        if (bank >= module_.geometry().banks)
            fatal("bank %u out of range", bank);
    }
}

void
DRangeTrng::setup()
{
    const dram::Geometry &geom = module_.geometry();
    const dram::Calibration &cal = module_.calibration();
    plans_.clear();

    for (uint32_t bank_id : cfg_.banks) {
        dram::Bank &bank = module_.bank(bank_id);
        // D-RaNGe probes a row initialized to all-zeros (the data
        // pattern its authors found most failure-prone).
        bank.pokeRowFill(kProbeRow, false);
        std::vector<float> probs =
            bank.earlyReadProbabilities(kProbeRow,
                                        cal.drangeReadNs);

        DRangeBankPlan plan;
        plan.bank = bank_id;
        plan.row = kProbeRow;

        uint32_t cb_bits = geom.cacheBlockBits;
        double best_entropy = -1.0;
        for (uint32_t col = 0; col < geom.cacheBlocksPerRow(); ++col) {
            double entropy = 0.0;
            for (uint32_t b = 0; b < cb_bits; ++b)
                entropy += binaryEntropy(probs[col * cb_bits + b]);
            if (entropy > best_entropy) {
                best_entropy = entropy;
                plan.bestColumn = col;
            }
        }
        plan.blockEntropy = best_entropy;

        plan.blockProbs.assign(
            probs.begin() + plan.bestColumn * cb_bits,
            probs.begin() + (plan.bestColumn + 1) * cb_bits);
        for (uint32_t b = 0; b < cb_bits; ++b) {
            float p = plan.blockProbs[b];
            if (p >= 0.4f && p <= 0.6f)
                plan.trngCells.push_back(b);
        }
        plans_.push_back(std::move(plan));
    }
    ready_ = true;
}

double
DRangeTrng::avgBlockEntropy() const
{
    QUAC_ASSERT(!plans_.empty(), "setup() not run");
    double sum = 0.0;
    for (const DRangeBankPlan &plan : plans_)
        sum += plan.blockEntropy;
    return sum / static_cast<double>(plans_.size());
}

double
DRangeTrng::avgTrngCells() const
{
    QUAC_ASSERT(!plans_.empty(), "setup() not run");
    double sum = 0.0;
    for (const DRangeBankPlan &plan : plans_)
        sum += static_cast<double>(plan.trngCells.size());
    return sum / static_cast<double>(plans_.size());
}

uint32_t
DRangeTrng::accessesPerNumber() const
{
    double entropy = avgBlockEntropy();
    QUAC_ASSERT(entropy > 0.0, "no entropy characterized");
    return static_cast<uint32_t>(
        std::max(1.0, std::ceil(cfg_.sibEntropyTarget / entropy)));
}

void
DRangeTrng::harvest()
{
    // One reduced-tRCD access per bank. Per-access samples are iid
    // Bernoulli(p) in the device model (see core/sa_stream.hh for the
    // equivalence argument), so harvesting samples from the
    // characterized probabilities matches replaying the command path.
    if (cfg_.enhanced) {
        for (const DRangeBankPlan &plan : plans_) {
            uint32_t accesses = accessesPerNumber();
            std::vector<uint8_t> raw;
            raw.reserve(static_cast<size_t>(accesses) *
                        plan.blockProbs.size() / 8);
            for (uint32_t a = 0; a < accesses; ++a) {
                uint8_t byte = 0;
                unsigned nbits = 0;
                for (float p : plan.blockProbs) {
                    byte = static_cast<uint8_t>(
                        (byte >> 1) |
                        (noise_.bernoulli(p) ? 0x80 : 0));
                    if (++nbits == 8) {
                        raw.push_back(byte);
                        byte = 0;
                        nbits = 0;
                    }
                }
            }
            Sha256::Digest digest = Sha256::hash(raw);
            buffer_.insert(buffer_.end(), digest.begin(), digest.end());
        }
    } else {
        for (const DRangeBankPlan &plan : plans_) {
            for (uint32_t cell : plan.trngCells) {
                bool bit = noise_.bernoulli(plan.blockProbs[cell]);
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
DRangeTrng::fill(uint8_t *out, size_t len)
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
                    fatal("D-RaNGe harvests no entropy on this module");
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
