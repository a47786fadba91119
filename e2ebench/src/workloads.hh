/**
 * @file
 * The benchmark's three workloads (see README.md for the table):
 *
 *   udp_small       open loop, 64 B interactive requests over UDP
 *                   loopback from 10k wire clients; software backends.
 *   udp_quac_large  closed loop, 1024 B standard requests over UDP
 *                   loopback; four test-scale QuacTrng modules.
 *   inproc_mixed    in-process open loops against Client::request:
 *                   interactive 32 B and bulk 4 KiB, QuacTrng
 *                   backends with health monitoring and auto-refill.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace e2e
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one received payload byte before hashing (the check
     * must then fail the run). */
    bool corruptPayload = false;
    /** Directory for the traced run's span dump ("" = none). */
    std::string traceDir;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** The bounded end-to-end set (untraced run). */
    std::vector<Metric> endToEnd;
    /** Finer per-phase / per-class end-to-end figures. */
    std::vector<Metric> detail;
    /** Per-layer metrics (traced run). */
    std::vector<Metric> perLayer;
    /** Output checks, each "PASS ..." or "FAIL ...". */
    std::vector<std::string> checks;

    /** Record one output check; a failing one clears `correct`. */
    void check(bool ok, const std::string &what);
};

/** Names accepted by runWorkload. */
const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::runtime_error on set-up failure. */
Outcome runWorkload(const Options &options);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
