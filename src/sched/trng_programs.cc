#include "sched/trng_programs.hh"

#include <algorithm>

#include "common/error.hh"
#include "dram/calibration.hh"
#include "sched/bus_scheduler.hh"

namespace quac::sched
{

namespace
{

using dram::CommandType;

/** Device calibration every schedule's violated timings come from. */
constexpr dram::Calibration kCalibration{};

/** D-RaNGe: 256-bit numbers simulated, and the warmup prefix. */
constexpr uint32_t kDRangeNumbers = 400;
constexpr uint32_t kDRangeWarmupNumbers = 20;

/** Talukder+: rows harvested, and the warmup prefix. */
constexpr uint32_t kTalukderRows = 60;
constexpr uint32_t kTalukderWarmupRows = 6;

/** Violated sequence for one RowClone copy. */
std::vector<std::pair<CommandType, double>>
rowCloneSeq(const dram::Calibration &cal)
{
    return {{CommandType::ACT, 0.0},
            {CommandType::PRE, cal.rowCloneSrcOpenNs},
            {CommandType::ACT, cal.rowCloneSrcOpenNs +
                                   cal.rowCloneGapNs}};
}

/** Violated sequence for the QUAC ACT-PRE-ACT core. */
std::vector<std::pair<CommandType, double>>
quacSeq(const dram::Calibration &cal)
{
    return {{CommandType::ACT, 0.0},
            {CommandType::PRE, cal.quacGapNs},
            {CommandType::ACT, 2.0 * cal.quacGapNs}};
}

/** The QUAC command program against an already-built channel. */
ScheduleStats
simulateQuacOn(BusScheduler &bus, const QuacScheduleConfig &cfg)
{
    QUAC_ASSERT(cfg.banks >= 1 && cfg.banks <= 4,
                "banks=%u (one per bank group)", cfg.banks);
    QUAC_ASSERT(cfg.iterations > kQuacWarmupIterations,
                "iterations=%u warmup=%u", cfg.iterations,
                kQuacWarmupIterations);

    const dram::Calibration &cal = kCalibration;
    const IterationProfile &profile = cfg.profile;

    uint32_t reads_per_sib =
        profile.sib > 0
            ? (profile.columnsRead + profile.sib - 1) / profile.sib
            : profile.columnsRead;

    double checkpoint = 0.0;
    double latency = 0.0;
    bool latency_done = false;
    uint64_t warmup_commands = 0;

    for (uint32_t iter = 0; iter < cfg.iterations; ++iter) {
        // --- Segment initialization (4 rows per bank) -------------
        if (cfg.init == InitMethod::RowClone) {
            for (uint32_t copy = 0; copy < 4; ++copy) {
                for (uint32_t b = 0; b < cfg.banks; ++b)
                    bus.issueViolated(b, rowCloneSeq(cal), 0.0);
                // Restore the overwritten destination, then close.
                for (uint32_t b = 0; b < cfg.banks; ++b)
                    bus.issuePre(b, 0.0);
            }
        } else {
            for (uint32_t row = 0; row < 4; ++row) {
                for (uint32_t b = 0; b < cfg.banks; ++b)
                    bus.issueAct(b, 0.0);
                for (uint32_t col = 0; col < profile.columnsPerRow;
                     ++col) {
                    for (uint32_t b = 0; b < cfg.banks; ++b)
                        bus.issueWrite(b, 0.0);
                }
                for (uint32_t b = 0; b < cfg.banks; ++b)
                    bus.issuePre(b, 0.0);
            }
        }

        // --- QUAC ---------------------------------------------------
        if (cfg.nativeQuacCommand) {
            // Future-interface mode (Section 4.3): one command slot
            // per bank; sensing still starts at the command.
            for (uint32_t b = 0; b < cfg.banks; ++b) {
                bus.issueViolated(b, {{CommandType::ACT, 0.0}}, 0.0);
            }
        } else {
            for (uint32_t b = 0; b < cfg.banks; ++b)
                bus.issueViolated(b, quacSeq(cal), 0.0);
        }

        // --- Read the SHA input block ranges ------------------------
        uint32_t bank0_reads = 0;
        for (uint32_t col = 0; col < profile.columnsRead; ++col) {
            for (uint32_t b = 0; b < cfg.banks; ++b) {
                BusScheduler::IssueInfo info = bus.issueRead(b, 0.0);
                if (!latency_done && b == 0 &&
                    ++bank0_reads == reads_per_sib) {
                    latency = info.dataEnd + kShaCore.latencyNs();
                    latency_done = true;
                }
            }
        }
        for (uint32_t b = 0; b < cfg.banks; ++b)
            bus.issuePre(b, 0.0);

        if (iter + 1 == kQuacWarmupIterations) {
            checkpoint = std::max(bus.lastCommandTime(),
                                  bus.dataBusEnd());
            warmup_commands = bus.commandsIssued();
        }
    }

    double end = std::max(bus.lastCommandTime(), bus.dataBusEnd());
    ScheduleStats stats;
    stats.totalNs = end - checkpoint;
    stats.bits = 256.0 * profile.sib * cfg.banks *
                 (cfg.iterations - kQuacWarmupIterations);
    stats.latency256Ns = latency;
    stats.busUtilization = end > 0.0 ? bus.dataBusBusyNs() / end : 0.0;
    stats.commands = bus.commandsIssued() - warmup_commands;
    return stats;
}

} // anonymous namespace

ScheduleStats
simulateQuacTrng(const dram::TimingParams &timing,
                 const QuacScheduleConfig &cfg)
{
    BusScheduler bus(timing, 16, 4);
    return simulateQuacOn(bus, cfg);
}

ScheduleStats
simulateQuacTrng(const ChannelTopology &topology, uint32_t channel,
                 const QuacScheduleConfig &cfg)
{
    BusScheduler bus = topology.makeScheduler(channel);
    return simulateQuacOn(bus, cfg);
}

namespace
{

RefillCost
refillCostFrom(const ScheduleStats &stats,
               const QuacScheduleConfig &cfg)
{
    double iterations =
        static_cast<double>(cfg.iterations - kQuacWarmupIterations);
    RefillCost cost;
    cost.iterationNs = stats.totalNs / iterations;
    cost.bitsPerIteration = stats.bits / iterations;
    cost.commandsPerIteration =
        static_cast<double>(stats.commands) / iterations;
    return cost;
}

} // anonymous namespace

RefillCost
quacRefillCost(const dram::TimingParams &timing,
               const QuacScheduleConfig &cfg)
{
    return refillCostFrom(simulateQuacTrng(timing, cfg), cfg);
}

RefillCost
quacRefillCost(const ChannelTopology &topology, uint32_t channel,
               const QuacScheduleConfig &cfg)
{
    return refillCostFrom(simulateQuacTrng(topology, channel, cfg),
                          cfg);
}

ScheduleStats
simulateDRange(const dram::TimingParams &timing,
               const DRangeScheduleConfig &cfg)
{
    QUAC_ASSERT(cfg.banks >= 1 && cfg.banks <= 4, "banks=%u",
                cfg.banks);
    BusScheduler bus(timing, 16, 4);
    const dram::Calibration &cal = kCalibration;

    std::vector<std::pair<CommandType, double>> access_seq = {
        {CommandType::ACT, 0.0},
        {CommandType::RD, cal.drangeReadNs}};

    double checkpoint = 0.0;
    double latency = 0.0;
    uint64_t total_accesses =
        static_cast<uint64_t>(kDRangeNumbers) * cfg.accessesPerNumber;
    uint64_t warmup_accesses =
        static_cast<uint64_t>(kDRangeWarmupNumbers) *
        cfg.accessesPerNumber;
    uint64_t first_number_accesses = cfg.accessesPerNumber;

    // Accesses proceed in waves across the bank groups. Each harvest
    // corrupts the probed cache block, so the known data pattern is
    // rewritten first (obeyed ACT + WR + PRE), then the violated
    // ACT+RD fires.
    uint64_t done = 0;
    while (done < total_accesses) {
        uint32_t in_wave = static_cast<uint32_t>(
            std::min<uint64_t>(cfg.banks, total_accesses - done));
        for (uint32_t b = 0; b < in_wave; ++b)
            bus.issueAct(b, 0.0);
        for (uint32_t b = 0; b < in_wave; ++b)
            bus.issueWrite(b, 0.0);
        for (uint32_t b = 0; b < in_wave; ++b)
            bus.issuePre(b, 0.0);
        double last_cmd = 0.0;
        for (uint32_t b = 0; b < in_wave; ++b)
            last_cmd = bus.issueViolated(b, access_seq, 0.0);
        for (uint32_t b = 0; b < in_wave; ++b)
            bus.issuePre(b, 0.0);

        uint64_t prev_done = done;
        done += in_wave;
        if (prev_done < first_number_accesses &&
            done >= first_number_accesses) {
            latency = last_cmd + timing.tCL + timing.tBurst;
            if (cfg.useSha)
                latency += kShaCore.latencyNs();
        }
        if (prev_done < warmup_accesses && done >= warmup_accesses) {
            checkpoint = std::max(bus.lastCommandTime(),
                                  bus.dataBusEnd());
            warmup_accesses = done;
        }
    }

    double end = std::max(bus.lastCommandTime(), bus.dataBusEnd());
    ScheduleStats stats;
    stats.totalNs = end - checkpoint;
    stats.bits = cfg.bitsPerAccess *
                 static_cast<double>(total_accesses - warmup_accesses);
    stats.latency256Ns = latency;
    stats.busUtilization = end > 0.0 ? bus.dataBusBusyNs() / end : 0.0;
    return stats;
}

ScheduleStats
simulateTalukder(const dram::TimingParams &timing,
                 const TalukderScheduleConfig &cfg)
{
    QUAC_ASSERT(cfg.banks >= 1 && cfg.banks <= 4, "banks=%u",
                cfg.banks);
    BusScheduler bus(timing, 16, 4);
    const dram::Calibration &cal = kCalibration;

    // Donor activation with obeyed tRAS, then a tRP-violated
    // re-activation of the victim row.
    std::vector<std::pair<CommandType, double>> failure_seq = {
        {CommandType::ACT, 0.0},
        {CommandType::PRE, timing.tRAS},
        {CommandType::ACT, timing.tRAS + cal.talukderPreNs}};

    double checkpoint = 0.0;
    double latency = 0.0;
    bool latency_done = false;
    uint32_t columns_per_256 = static_cast<uint32_t>(
        cfg.columnsRead / std::max(1.0, cfg.bitsPerRow / 256.0));

    // Rows are harvested in waves of cfg.banks so the row reads from
    // different bank groups interleave on the data bus (the paper's
    // bank-group-parallelism augmentation).
    uint32_t waves = (kTalukderRows + cfg.banks - 1) / cfg.banks;
    uint32_t rows_done = 0;
    uint32_t warmup_rows_done = 0;

    for (uint32_t wave = 0; wave < waves; ++wave) {
        uint32_t in_wave =
            std::min(cfg.banks, kTalukderRows - wave * cfg.banks);

        for (uint32_t b = 0; b < in_wave; ++b) {
            if (cfg.rowCloneInit) {
                bus.issueViolated(b, rowCloneSeq(cal), 0.0);
                bus.issuePre(b, 0.0);
            } else {
                bus.issueAct(b, 0.0);
                for (uint32_t col = 0; col < cfg.columnsPerRow; ++col)
                    bus.issueWrite(b, 0.0);
                bus.issuePre(b, 0.0);
            }
            bus.issueViolated(b, failure_seq, 0.0);
        }

        for (uint32_t col = 0; col < cfg.columnsRead; ++col) {
            for (uint32_t b = 0; b < in_wave; ++b) {
                BusScheduler::IssueInfo info = bus.issueRead(b, 0.0);
                if (!latency_done && b == 0 &&
                    col + 1 == columns_per_256) {
                    latency = info.dataEnd;
                    if (cfg.useSha)
                        latency += kShaCore.latencyNs();
                    latency_done = true;
                }
            }
        }
        for (uint32_t b = 0; b < in_wave; ++b)
            bus.issuePre(b, 0.0);

        rows_done += in_wave;
        if (warmup_rows_done < kTalukderWarmupRows &&
            rows_done >= kTalukderWarmupRows) {
            checkpoint = std::max(bus.lastCommandTime(),
                                  bus.dataBusEnd());
            warmup_rows_done = rows_done;
        }
    }

    double end = std::max(bus.lastCommandTime(), bus.dataBusEnd());
    ScheduleStats stats;
    stats.totalNs = end - checkpoint;
    stats.bits = cfg.bitsPerRow * (kTalukderRows - warmup_rows_done);
    stats.latency256Ns = latency;
    stats.busUtilization = end > 0.0 ? bus.dataBusBusyNs() / end : 0.0;
    return stats;
}

} // namespace quac::sched
