#include "core/characterizer.hh"

#include <algorithm>
#include <functional>

#include "common/error.hh"
#include "common/parallel.hh"

namespace quac::core
{

std::vector<ColumnRange>
sibRanges(const std::vector<double> &cache_block_entropy, double target)
{
    QUAC_ASSERT(target > 0.0, "target=%f", target);
    std::vector<ColumnRange> ranges;
    ColumnRange current;
    current.beginColumn = 0;
    for (uint32_t col = 0; col < cache_block_entropy.size(); ++col) {
        current.entropy += cache_block_entropy[col];
        if (current.entropy >= target) {
            current.endColumn = col + 1;
            ranges.push_back(current);
            current = ColumnRange{};
            current.beginColumn = col + 1;
        }
    }
    // A trailing range that never reached the target is discarded:
    // hashing it would over-claim entropy.
    return ranges;
}

namespace
{

/** The sampled segments of one bank that share a subarray. */
struct SegmentGroup
{
    size_t bankIndex = 0; ///< Index into the pass's bank list.
    size_t begin = 0;     ///< First sample of the group.
    size_t end = 0;       ///< One past its last sample.
};

/**
 * One characterization pass: every cfg.segmentStride-th segment of
 * each listed bank, grouped by (bank, subarray). Groups are bank-major
 * and, within a bank, in segment order.
 */
class SegmentPass
{
  public:
    SegmentPass(const dram::DramModule &module,
                const std::vector<uint32_t> &banks,
                const CharacterizerConfig &cfg)
        : module_(module), banks_(banks), cfg_(cfg)
    {
        const dram::Geometry &geom = module.geometry();
        QUAC_ASSERT(cfg.segmentStride >= 1, "stride=%u",
                    cfg.segmentStride);
        for (uint32_t s = 0; s < geom.segmentsPerBank();
             s += cfg.segmentStride) {
            samples_.push_back(s);
        }
        for (size_t b = 0; b < banks.size(); ++b) {
            QUAC_ASSERT(banks[b] < geom.banks, "bank=%u", banks[b]);
            for (size_t i = 0; i < samples_.size(); ++i) {
                if (i == 0 || subarrayOf(i) != subarrayOf(i - 1))
                    groups_.push_back({b, i, i});
                groups_.back().end = i + 1;
            }
        }
    }

    /** Sampled segments (the same for every bank), in order. */
    const std::vector<uint32_t> &samples() const { return samples_; }

    const std::vector<SegmentGroup> &groups() const { return groups_; }

    /**
     * Call fn(group, sample, model) for every sampled segment, one
     * parallel task per group. A task draws its subarray's raw SA
     * offsets once and visits its segments in order.
     */
    void
    run(const std::function<void(size_t, size_t,
                                 const dram::SegmentModel &)> &fn) const
    {
        const dram::Geometry &geom = module_.geometry();
        parallelFor(0, groups_.size(), [&](size_t g) {
            const SegmentGroup &group = groups_[g];
            uint32_t bank = banks_[group.bankIndex];
            std::vector<double> sa_offsets(geom.bitlinesPerRow);
            module_.variation().saOffsetRowMv(
                bank, geom.firstRowOfSegment(samples_[group.begin]),
                geom.bitlinesPerRow, sa_offsets.data());
            for (size_t i = group.begin; i < group.end; ++i) {
                dram::SegmentModel model(
                    geom, module_.calibration(), module_.variation(),
                    bank, samples_[i], sa_offsets.data(),
                    cfg_.temperatureC, cfg_.ageDays);
                fn(g, i, model);
            }
        }, cfg_.threads);
    }

  private:
    uint32_t
    subarrayOf(size_t sample) const
    {
        const dram::Geometry &geom = module_.geometry();
        return geom.subarrayOfRow(
            geom.firstRowOfSegment(samples_[sample]));
    }

    const dram::DramModule &module_;
    std::vector<uint32_t> banks_;
    CharacterizerConfig cfg_;
    std::vector<uint32_t> samples_;
    std::vector<SegmentGroup> groups_;
};

} // anonymous namespace

Characterizer::Characterizer(const dram::DramModule &module)
    : module_(module)
{
}

std::vector<BankProfile>
Characterizer::profileBanks(const std::vector<uint32_t> &banks,
                            const CharacterizerConfig &cfg) const
{
    SegmentPass pass(module_, banks, cfg);
    std::vector<BankProfile> profiles(banks.size());
    for (size_t b = 0; b < banks.size(); ++b) {
        profiles[b].bank = banks[b];
        profiles[b].segments.resize(pass.samples().size());
    }

    // Each group's first strict maximum and its cache-block profile.
    struct GroupBest
    {
        SegmentEntropy best;
        std::vector<double> blocks;
    };
    std::vector<GroupBest> group_best(pass.groups().size());
    pass.run([&](size_t g, size_t i, const dram::SegmentModel &model) {
        std::vector<double> blocks;
        SegmentEntropy se{model.segment(),
                          model.segmentAndBlockEntropies(cfg.pattern,
                                                         blocks)};
        const SegmentGroup &group = pass.groups()[g];
        profiles[group.bankIndex].segments[i] = se;
        GroupBest &best = group_best[g];
        if (i == group.begin || se.entropy > best.best.entropy)
            best = {se, std::move(blocks)};
    });

    // A bank's groups run in segment order, so keeping a later group's
    // maximum only when strictly greater keeps the first strict one.
    for (size_t g = 0; g < group_best.size(); ++g) {
        const SegmentGroup &group = pass.groups()[g];
        BankProfile &profile = profiles[group.bankIndex];
        if (group.begin == 0 ||
            group_best[g].best.entropy > profile.best.entropy) {
            profile.best = group_best[g].best;
            profile.bestCacheBlocks = std::move(group_best[g].blocks);
        }
    }
    return profiles;
}

std::vector<SegmentEntropy>
Characterizer::segmentEntropies(const CharacterizerConfig &cfg) const
{
    return profileBanks({cfg.bank}, cfg).front().segments;
}

SegmentEntropy
Characterizer::bestSegment(const CharacterizerConfig &cfg) const
{
    return profileBanks({cfg.bank}, cfg).front().best;
}

std::vector<PatternStats>
Characterizer::patternSweep(const CharacterizerConfig &cfg) const
{
    SegmentPass pass(module_, {cfg.bank}, cfg);
    const size_t nsegments = pass.samples().size();

    auto patterns = dram::allPatterns();
    // Per-segment partial aggregates, merged after the parallel pass.
    struct Partial
    {
        std::vector<double> sumCb;
        std::vector<double> maxCb;
        size_t cbCount = 0;
    };
    std::vector<Partial> partials(nsegments);

    pass.run([&](size_t, size_t i, const dram::SegmentModel &model) {
        Partial &partial = partials[i];
        partial.sumCb.assign(patterns.size(), 0.0);
        partial.maxCb.assign(patterns.size(), 0.0);
        for (size_t p = 0; p < patterns.size(); ++p) {
            auto blocks = model.cacheBlockEntropies(patterns[p]);
            partial.cbCount = blocks.size();
            for (double h : blocks) {
                partial.sumCb[p] += h;
                partial.maxCb[p] = std::max(partial.maxCb[p], h);
            }
        }
    });

    std::vector<PatternStats> stats(patterns.size());
    size_t total_blocks = 0;
    for (const Partial &partial : partials)
        total_blocks += partial.cbCount;
    for (size_t p = 0; p < patterns.size(); ++p) {
        stats[p].pattern = patterns[p];
        double sum_cb = 0.0;
        double max_cb = 0.0;
        for (const Partial &partial : partials) {
            sum_cb += partial.sumCb[p];
            max_cb = std::max(max_cb, partial.maxCb[p]);
        }
        stats[p].avgCacheBlockEntropy =
            total_blocks ? sum_cb / static_cast<double>(total_blocks)
                         : 0.0;
        stats[p].maxCacheBlockEntropy = max_cb;
        // A segment's entropy is the sum of its cache blocks'.
        stats[p].avgSegmentEntropy =
            nsegments ? sum_cb / static_cast<double>(nsegments) : 0.0;
    }
    return stats;
}

} // namespace quac::core
