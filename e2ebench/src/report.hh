/**
 * @file
 * Result printing: the host stamp, the human-readable report and the
 * final one-line JSON object.
 */

#ifndef E2EBENCH_REPORT_HH
#define E2EBENCH_REPORT_HH

#include <string>

#include "host_speed.hh"
#include "workloads.hh"

namespace e2e
{

/** Host facts as one JSON object (nproc, CPU model and flags,
 * compiler, build type, git sha, date, seed, host-speed reference). */
std::string hostStamp(const Options &options, const std::string &git_sha,
                      const HostSpeed &speed);

/** Print the report and, as the last line, the result JSON. */
void printOutcome(const Options &options, const Outcome &outcome,
                  const std::string &host);

} // namespace e2e

#endif // E2EBENCH_REPORT_HH
