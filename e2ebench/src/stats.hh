/**
 * @file
 * Order statistics and the rate-ladder stop rule used by the
 * end-to-end benchmark. Header-only so the self-test checks the exact
 * code the benchmark runs.
 */

#ifndef E2EBENCH_STATS_HH
#define E2EBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e
{

/**
 * Nearest-rank percentile of @p samples (q in [0, 1]): the smallest
 * sample with at least ceil(q * n) samples at or below it. Sorts in
 * place. Returns 0 for an empty set.
 */
template <typename T>
T
percentile(std::vector<T> &samples, double q)
{
    if (samples.empty())
        return T{};
    std::sort(samples.begin(), samples.end());
    double rank = std::ceil(q * static_cast<double>(samples.size()));
    size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return samples[std::min(index, samples.size() - 1)];
}

/** Median as the mean of the two middle samples for even n. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Latencies of one measured phase, split into fixed sub-windows by
 * scheduled send time. Each window yields its own percentile and the
 * phase reports the median over windows, which damps one-off host
 * stalls that a single whole-phase percentile would carry. Samples
 * live in one flat buffer (one allocation per phase, released in one
 * piece) so the benchmark's own memory stays out of the program's
 * peak RSS as far as possible.
 */
class WindowedLatency
{
  public:
    /** @p window_ns sub-window length; @p start_ns phase start. */
    WindowedLatency(uint64_t start_ns, uint64_t window_ns)
        : start_(start_ns), window_(window_ns)
    {
    }

    void
    add(uint64_t scheduled_ns, uint64_t latency_ns)
    {
        uint64_t w = scheduled_ns <= start_
                         ? 0
                         : (scheduled_ns - start_) / window_;
        samples_.push_back({w, latency_ns});
        sorted_ = false;
    }

    /** Reserve room for @p samples, so the buffer never grows
     * (reallocates and copies) mid-phase. */
    void reserve(size_t samples) { samples_.reserve(samples); }

    /** Free every sample (the phase has been evaluated). */
    void
    release()
    {
        samples_ = {};
        sorted_ = false;
    }

    /** The q-percentile (us) of every window with >= @p min_samples
     * samples, in window order. */
    std::vector<double>
    windowValuesUs(double q, size_t min_samples)
    {
        sortByWindow();
        std::vector<double> out;
        std::vector<uint64_t> one;
        for (size_t i = 0; i < samples_.size();) {
            size_t j = i;
            one.clear();
            while (j < samples_.size() &&
                   samples_[j].window == samples_[i].window)
                one.push_back(samples_[j++].latencyNs);
            if (one.size() >= min_samples)
                out.push_back(static_cast<double>(percentile(one, q)) /
                              1e3);
            i = j;
        }
        return out;
    }

    /** The median over windows of each window's q-percentile (us). */
    double
    medianOfWindowsUs(double q, size_t min_samples)
    {
        return median(windowValuesUs(q, min_samples));
    }

  private:
    struct Sample
    {
        uint64_t window;
        uint64_t latencyNs;
    };

    void
    sortByWindow()
    {
        if (sorted_)
            return;
        // In place: no temporary the size of the phase.
        std::sort(samples_.begin(), samples_.end(),
                  [](const Sample &a, const Sample &b) {
                      return a.window < b.window;
                  });
        sorted_ = true;
    }

    uint64_t start_;
    uint64_t window_;
    std::vector<Sample> samples_;
    bool sorted_ = false;
};

/**
 * Rate-ladder stop rule for max_rps_at_slo. A rung passes when its
 * p99 meets the SLO with zero loss; a failing rung is retried once
 * so a single host hiccup does not end the climb, and only a second
 * failure at the same rate counts. Rungs climb by the coarse factor
 * until a confirmed failure, then restart one fine step above the
 * best passing rate and climb by the fine factor until the next
 * confirmed failure (or until the next rung would reach a rate that
 * already failed). When no rung has passed yet, a confirmed failure
 * steps down by the coarse factor instead. The answer is the highest
 * rate that passed (0 if none).
 */
class RateLadder
{
  public:
    RateLadder(double start_rps, double coarse, double fine,
               double slo_us, unsigned max_rungs)
        : rate_(start_rps), coarse_(coarse), fine_(fine),
          sloUs_(slo_us), maxRungs_(max_rungs)
    {
    }

    /** The rate the next rung should offer. */
    double rate() const { return rate_; }

    /** True once the ladder has stopped. */
    bool done() const { return done_; }

    /** Highest passing rate so far. */
    double best() const { return best_; }

    /** Rungs run so far (retries included). */
    unsigned rungs() const { return rungs_; }

    /** Does a rung with this outcome pass? */
    bool
    passes(double p99_us, uint64_t lost) const
    {
        return lost == 0 && p99_us <= sloUs_;
    }

    /** Record the outcome of the rung just run at rate(). */
    void
    record(double p99_us, uint64_t lost)
    {
        ++rungs_;
        if (passes(p99_us, lost)) {
            best_ = std::max(best_, rate_);
            retried_ = false;
            rate_ *= fineStage_ ? fine_ : coarse_;
            if (rate_ >= ceiling_)
                refine();
        } else if (!retried_) {
            retried_ = true; // same rate once more
        } else {
            retried_ = false;
            ceiling_ = std::min(ceiling_, rate_);
            if (best_ == 0.0)
                rate_ /= coarse_;
            else
                refine();
        }
        if (rungs_ >= maxRungs_)
            done_ = true;
    }

  private:
    /** Continue one fine step above the best pass, or stop. */
    void
    refine()
    {
        if (fineStage_) {
            done_ = true;
            return;
        }
        fineStage_ = true;
        rate_ = best_ * fine_;
        if (rate_ >= ceiling_)
            done_ = true;
    }

    double rate_;
    double coarse_;
    double fine_;
    double sloUs_;
    unsigned maxRungs_;
    unsigned rungs_ = 0;
    double best_ = 0.0;
    /** Lowest rate with a confirmed failure. */
    double ceiling_ = 1e300;
    bool fineStage_ = false;
    bool retried_ = false;
    bool done_ = false;
};

} // namespace e2e

#endif // E2EBENCH_STATS_HH
