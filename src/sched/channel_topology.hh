/**
 * @file
 * Static shape of the multi-channel memory system the TRNG stack is
 * scheduled on (paper Section 7.3 reports a 4-channel DDR4 system).
 *
 * A ChannelTopology names how many channels exist, how many banks and
 * bank groups each has, and which JEDEC timing set each channel runs
 * at (channels may be heterogeneous, e.g. mixed-speed DIMMs). Every
 * channel gets its own BusScheduler instance; the per-channel TRNG
 * simulations in trng_programs.hh accept a (topology, channel)
 * address instead of assuming one implicit channel.
 */

#ifndef QUAC_SCHED_CHANNEL_TOPOLOGY_HH
#define QUAC_SCHED_CHANNEL_TOPOLOGY_HH

#include <cstdint>
#include <vector>

#include "dram/timing.hh"
#include "sched/bus_scheduler.hh"

namespace quac::sched
{

/** Channels x banks shape plus per-channel timing. */
struct ChannelTopology
{
    /** Number of independent memory channels. */
    uint32_t channels = 4;
    /** Banks per channel. */
    uint32_t banksPerChannel = 16;
    /** Bank groups per channel. */
    uint32_t bankGroups = 4;
    /** Timing set used by every channel without an override. */
    dram::TimingParams timing = dram::TimingParams::ddr4(2400);
    /**
     * Optional per-channel timing overrides: channel c uses
     * perChannelTiming[c] when c < perChannelTiming.size(), else
     * the shared @ref timing. Lets studies model heterogeneous
     * channels (one slow DIMM starving its shards, say).
     */
    std::vector<dram::TimingParams> perChannelTiming;

    /** A single-channel topology at @p t. */
    static ChannelTopology single(
        const dram::TimingParams &t = dram::TimingParams::ddr4(2400));

    /** Timing of @p channel (fatal if out of range). */
    const dram::TimingParams &channelTiming(uint32_t channel) const;

    /** A fresh BusScheduler for @p channel (fatal if out of range). */
    BusScheduler makeScheduler(uint32_t channel) const;

    /** True when any channel overrides the shared timing. */
    bool heterogeneous() const { return !perChannelTiming.empty(); }
};

} // namespace quac::sched

#endif // QUAC_SCHED_CHANNEL_TOPOLOGY_HH
