/**
 * @file
 * e2ebench: one end-to-end entropy-serving workload per invocation.
 *
 *   e2ebench --workload <udp_small|udp_quac_large|inproc_mixed>
 *            --seed N --seconds S --trace 0|1
 *            [--trace-dir DIR] [--git-sha SHA] [--corrupt-payload]
 *
 * Prints a host stamp (with the host-speed reference timed before and
 * after the workload), the output checks, every metric by name and
 * unit, and as the last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exits 1 when any output check fails, 2 on a usage or set-up error
 * (without a result line).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "host_speed.hh"
#include "report.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] "
                 "[--git-sha SHA] [--corrupt-payload]\n",
                 msg);
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    e2e::Options opt;
    std::string git_sha = "unknown";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--corrupt-payload") {
            opt.corruptPayload = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opt.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opt.trace = std::stoi(value) != 0;
            } else if (arg == "--trace-dir") {
                opt.traceDir = value;
            } else if (arg == "--git-sha") {
                git_sha = value;
            } else {
                usage(("unknown flag " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    bool known = false;
    for (const std::string &w : e2e::workloadNames())
        known = known || w == opt.workload;
    if (!known)
        usage(("unknown workload " + opt.workload).c_str());
    if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0))
        usage("--seconds must be in [1, 600]");

    // The host-speed reference brackets the run, timed while the
    // program is idle so that its own load cannot move it.
    constexpr unsigned kPasses = 25;
    e2e::HostSpeed speed;
    speed.startMs = e2e::timeKernelPasses(kPasses);
    e2e::Outcome outcome;
    try {
        outcome = e2e::runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 2;
    }
    speed.endMs = e2e::timeKernelPasses(kPasses);
    e2e::printOutcome(opt, outcome, e2e::hostStamp(opt, git_sha, speed));
    return outcome.correct ? 0 : 1;
}
