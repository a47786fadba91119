/**
 * @file
 * Host-speed reference: a fixed CPU kernel that shares no code with
 * the program, timed before and after every run while the program is
 * idle.
 *
 * A shared VM moves between speed regimes minutes apart (the same
 * serial QUAC workload has read 18.4k and 10k req/s an hour apart),
 * and no in-run statistic removes that. The kernel's speed, printed in
 * every host stamp, tells two sets of runs made in different regimes
 * apart: their comparison is not valid (see README.md).
 */

#ifndef E2EBENCH_HOST_SPEED_HH
#define E2EBENCH_HOST_SPEED_HH

#include <string>
#include <vector>

namespace e2e
{

/** Median pass time (ms) that defines speed 1.0. */
constexpr double kReferencePassMs = 1.95;

/** Wall milliseconds of each of @p passes passes of the kernel. */
std::vector<double> timeKernelPasses(unsigned passes);

struct HostSpeed
{
    std::vector<double> startMs;
    std::vector<double> endMs;

    /** Median over the start and end passes. */
    double medianPassMs() const;
    /** kReferencePassMs / medianPassMs(): below 1 on a slower host. */
    double speed() const;
    /** One JSON object: start/end medians, speed, drift. */
    std::string json() const;
};

} // namespace e2e

#endif // E2EBENCH_HOST_SPEED_HH
