/**
 * @file
 * Command-schedule throughput models for QUAC-TRNG and the two
 * high-throughput baselines (paper Sections 7.2 and 7.4). Each
 * simulator drives the BusScheduler with the exact command sequence
 * the TRNG needs and reports steady-state throughput plus the
 * 256-bit-number latency.
 */

#ifndef QUAC_SCHED_TRNG_PROGRAMS_HH
#define QUAC_SCHED_TRNG_PROGRAMS_HH

#include <cstdint>

#include "dram/timing.hh"
#include "sched/channel_topology.hh"
#include "sched/sha_model.hh"

namespace quac::sched
{

/** How the QUAC segment is re-initialized every iteration. */
enum class InitMethod
{
    WriteBursts, ///< Memory-controller WR bursts (One Bank / BGP).
    RowClone,    ///< In-DRAM copies from reserved rows (RC + BGP).
};

/** Per-bank per-iteration workload parameters from characterization. */
struct IterationProfile
{
    /** SHA input blocks harvested per iteration (floor(H/256)). */
    uint32_t sib = 7;
    /** Cache blocks read per iteration (SIB range coverage). */
    uint32_t columnsRead = 128;
    /** Cache blocks per row (write-based init cost). */
    uint32_t columnsPerRow = 128;
};

/** Iterations simulated before the QUAC steady-state window opens. */
constexpr uint32_t kQuacWarmupIterations = 5;

/** The memory-controller SHA-256 core every schedule charges. */
inline constexpr ShaCoreModel kShaCore{};

/** QUAC-TRNG schedule configuration (Fig 11 configurations). */
struct QuacScheduleConfig
{
    InitMethod init = InitMethod::RowClone;
    /** Banks used concurrently (1 = One Bank; 4 = bank-group par.). */
    uint32_t banks = 4;
    IterationProfile profile;
    /** Iterations simulated (> kQuacWarmupIterations). */
    uint32_t iterations = 50;
    /**
     * Paper Section 4.3 future interface: a DRAM chip specified to
     * perform QUAC natively replaces the three-command violated
     * ACT-PRE-ACT sequence with a single QUAC command.
     */
    bool nativeQuacCommand = false;
};

/** Measured schedule outcome. */
struct ScheduleStats
{
    double totalNs = 0.0;       ///< Steady-state makespan.
    double bits = 0.0;          ///< Random bits produced.
    double latency256Ns = 0.0;  ///< Cold-start first 256-bit number.
    double busUtilization = 0.0;
    /** Command-bus slots consumed in the steady-state window. */
    uint64_t commands = 0;

    /** Per-channel throughput in Gb/s. */
    double
    throughputGbps() const
    {
        return totalNs > 0.0 ? bits / totalNs : 0.0;
    }
};

/** Simulate QUAC-TRNG on one 16-bank/4-group channel. */
ScheduleStats simulateQuacTrng(const dram::TimingParams &timing,
                               const QuacScheduleConfig &cfg);

/**
 * Channel-addressable form: simulate QUAC-TRNG on channel @p channel
 * of @p topology, using that channel's timing and bank shape.
 * Channels are independent at command granularity, so per-channel
 * results differ only through the topology's per-channel timing.
 */
ScheduleStats simulateQuacTrng(const ChannelTopology &topology,
                               uint32_t channel,
                               const QuacScheduleConfig &cfg);

/**
 * Steady-state cost of one QUAC-TRNG refill iteration, as the
 * entropy-service refill scheduler charges it against channel time:
 * wall-clock ns, random bits produced, and command-bus slots
 * consumed. Derived from the full BusScheduler simulation
 * (simulateQuacTrng) with warmup excluded.
 */
struct RefillCost
{
    double iterationNs = 0.0;
    double bitsPerIteration = 0.0;
    double commandsPerIteration = 0.0;

    double
    nsPerByte() const
    {
        return bitsPerIteration > 0.0
                   ? iterationNs / (bitsPerIteration / 8.0)
                   : 0.0;
    }
};

RefillCost quacRefillCost(const dram::TimingParams &timing,
                          const QuacScheduleConfig &cfg);

/** Channel-addressable refill cost on @p channel of @p topology. */
RefillCost quacRefillCost(const ChannelTopology &topology,
                          uint32_t channel,
                          const QuacScheduleConfig &cfg);

/** D-RaNGe schedule configuration (Section 7.4.1). */
struct DRangeScheduleConfig
{
    uint32_t banks = 4;
    /** Random bits harvested per reduced-tRCD access. */
    double bitsPerAccess = 4.0;
    /** Accesses needed per 256-bit number. */
    uint32_t accessesPerNumber = 64;
    /** Enhanced configuration post-processes with SHA-256. */
    bool useSha = false;
};

/** Simulate D-RaNGe on one channel. */
ScheduleStats simulateDRange(const dram::TimingParams &timing,
                             const DRangeScheduleConfig &cfg);

/** Talukder+ schedule configuration (Section 7.4.2). */
struct TalukderScheduleConfig
{
    uint32_t banks = 4;
    /** Random bits produced per harvested row. */
    double bitsPerRow = 768.0;
    /** Cache blocks read per harvested row. */
    uint32_t columnsRead = 128;
    /** Cache blocks per row (write-based init cost). */
    uint32_t columnsPerRow = 128;
    /** Enhanced configuration initializes rows with RowClone. */
    bool rowCloneInit = true;
    bool useSha = true;
};

/** Simulate Talukder+ on one channel. */
ScheduleStats simulateTalukder(const dram::TimingParams &timing,
                               const TalukderScheduleConfig &cfg);

} // namespace quac::sched

#endif // QUAC_SCHED_TRNG_PROGRAMS_HH
