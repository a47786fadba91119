/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded only
 * around calls the benchmark itself makes into the program's public
 * API (UdpServer::poll, the backend-fill wrapper, Client::request,
 * QuacTrng::setup); tracing inside the program is out of scope.
 *
 * Each thread appends to its own log (no shared lock on the record
 * path); a span's parent is the innermost span open on the same
 * thread when it began. Logs are read only after every recording
 * thread has been joined. Disabled tracing costs one relaxed load
 * per span site.
 */

#ifndef E2EBENCH_TRACE_HH
#define E2EBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e::trace
{

enum class Kind : uint8_t
{
    Poll = 0,
    Fill = 1,
    Request = 2,
    Setup = 3,
};
constexpr size_t kKinds = 4;

/** "poll", "fill", "request", "setup". */
const char *kindName(Kind kind);

/** Monotonic clock in ns (steady_clock). */
uint64_t nowNs();

void setEnabled(bool on);
bool enabled();

/** RAII span; records nothing while tracing is disabled. */
class Span
{
  public:
    explicit Span(Kind kind, uint64_t request_id = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Work items the span completed (datagrams, bytes, ...). */
    void setItems(uint64_t items);

  private:
    int64_t index_ = -1;
};

/** Aggregates over one span kind. */
struct KindSummary
{
    uint64_t count = 0;
    uint64_t totalNs = 0;
    /**
     * Busy time minus the time covered by child spans. Busy time is
     * the span's duration, except for poll spans, where it is the
     * loop thread's CPU time (idle epoll_wait is not work).
     */
    uint64_t selfNs = 0;
    uint64_t items = 0;
    /** The same, over spans with items > 0 only. */
    uint64_t busyCount = 0;
    uint64_t busySelfNs = 0;
    uint64_t busyItems = 0;
    /** Every span's duration (for percentiles). */
    std::vector<uint64_t> durations;
};

/**
 * Per-kind aggregates of the recorded spans that started at or after
 * @p since_ns (setup spans are always included). Call only while no
 * other thread records.
 */
std::array<KindSummary, kKinds> summarize(uint64_t since_ns);

/**
 * Write every span as TSV (thread, id, parent, kind, start_ns,
 * end_ns, cpu_ns, request_id, items). Returns false on an I/O error.
 */
bool writeTsv(const std::string &path);

} // namespace e2e::trace

#endif // E2EBENCH_TRACE_HH
