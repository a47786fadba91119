#include "report.hh"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace e2e
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Shortest exact text of @p v (JSON has no NaN/inf: those print 0). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
cpuInfo(std::string &model, std::string &flags)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        auto value = [&line] {
            size_t colon = line.find(':');
            return colon == std::string::npos ? std::string()
                                              : line.substr(colon + 2);
        };
        if (model.empty() && line.rfind("model name", 0) == 0)
            model = value();
        if (line.rfind("flags", 0) == 0) {
            std::istringstream words(value());
            std::string w;
            while (words >> w) {
                if (w == "avx2" || w == "avx512f" || w == "sha_ni")
                    flags += (flags.empty() ? "" : " ") + w;
            }
            break;
        }
    }
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    if (metrics.empty())
        return;
    std::printf("%s:\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // anonymous namespace

std::string
hostStamp(const Options &options, const std::string &git_sha,
          const HostSpeed &speed)
{
    std::string model;
    std::string flags;
    cpuInfo(model, flags);
    char date[32];
    std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    std::ostringstream o;
    o << "{\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu\": " << jsonString(model)
      << ", \"cpu_flags\": " << jsonString(flags)
      << ", \"compiler\": " << jsonString(E2EBENCH_COMPILER)
      << ", \"build_type\": " << jsonString(E2EBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << jsonString(git_sha)
      << ", \"date\": " << jsonString(date)
      << ", \"workload\": " << jsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << jsonNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"host_speed\": " << speed.json() << "}";
    return o.str();
}

void
printOutcome(const Options &options, const Outcome &outcome,
             const std::string &host)
{
    std::printf("host: %s\n", host.c_str());
    std::printf("workload %s, seed %llu, %s run\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
    std::printf("checks:\n");
    for (const std::string &c : outcome.checks)
        std::printf("  %s\n", c.c_str());
    std::printf("requests: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    printMetrics("end-to-end", outcome.endToEnd);
    printMetrics("end-to-end detail", outcome.detail);
    printMetrics("per-layer", outcome.perLayer);

    const std::vector<Metric> &metrics =
        options.trace ? outcome.perLayer : outcome.endToEnd;
    std::string json = "{\"correct\": ";
    json += outcome.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i > 0 ? ", " : "") + jsonString(m.name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace e2e
