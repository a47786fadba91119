/**
 * @file
 * Figure 10: per-cache-block entropy across the highest-entropy
 * segment of each module (pattern "0111").
 *
 * Paper expectation: cache-block entropy peaks around the middle of
 * the segment and deteriorates toward the high-numbered blocks.
 */

#include <algorithm>
#include <cstdio>

#include "common/parallel.hh"
#include "common/stats.hh"
#include "core/characterizer.hh"
#include "util.hh"

using namespace quac;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"full", "stride", "modules", "threads", "buckets"});
    auto opts = benchutil::SweepOptions::parse(args, 32);
    uint32_t buckets =
        static_cast<uint32_t>(args.getUint("buckets", 16));

    benchutil::printExperimentHeader(
        "Figure 10: cache-block entropy inside the best segment",
        "entropy peaks around the middle cache blocks and "
        "deteriorates toward the end of the segment",
        opts.note());

    auto specs = benchutil::catalogModules(opts.moduleCount);
    uint32_t ncols = dram::Geometry::paperScale().cacheBlocksPerRow();
    std::vector<std::vector<double>> profiles(specs.size());

    parallelFor(0, specs.size(), [&](size_t i) {
        dram::DramModule module(specs[i]);
        core::Characterizer characterizer(module);
        core::CharacterizerConfig cfg;
        cfg.segmentStride = opts.stride;
        cfg.threads = 1;
        profiles[i] =
            characterizer.profileBanks({0}, cfg).front().bestCacheBlocks;
    }, opts.threads);

    Table table({"cache blocks", "avg entropy", "range [min,max]"});
    std::vector<double> bucket_avg(buckets, 0.0);
    for (uint32_t bucket = 0; bucket < buckets; ++bucket) {
        uint32_t begin = bucket * ncols / buckets;
        uint32_t end = (bucket + 1) * ncols / buckets;
        RunningStats stats;
        for (const auto &profile : profiles) {
            for (uint32_t col = begin; col < end; ++col)
                stats.add(profile[col]);
        }
        bucket_avg[bucket] = stats.mean();
        table.addRow({std::to_string(begin) + "-" +
                          std::to_string(end - 1),
                      Table::num(stats.mean(), 2),
                      "[" + Table::num(stats.min(), 2) + ", " +
                          Table::num(stats.max(), 2) + "]"});
    }
    table.print();

    size_t peak_bucket = static_cast<size_t>(
        std::max_element(bucket_avg.begin(), bucket_avg.end()) -
        bucket_avg.begin());
    std::printf("\nShape checks:\n");
    std::printf("  peak bucket %zu of %u (middle band expected) -> "
                "%s\n",
                peak_bucket, buckets,
                (peak_bucket >= buckets / 5 &&
                 peak_bucket <= 3 * buckets / 4)
                    ? "OK" : "OFF");
    std::printf("  tail below peak: last bucket %.2f vs peak %.2f -> "
                "%s\n",
                bucket_avg.back(), bucket_avg[peak_bucket],
                bucket_avg.back() < 0.8 * bucket_avg[peak_bucket]
                    ? "OK" : "OFF");
    std::printf("  tail below head: %.2f vs %.2f -> %s\n",
                bucket_avg.back(), bucket_avg.front(),
                bucket_avg.back() <= bucket_avg.front() + 1e-9
                    ? "OK" : "OFF");
    return 0;
}
