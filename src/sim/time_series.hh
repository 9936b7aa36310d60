/**
 * @file
 * Time-bucketed counters used to record throughput and availability
 * over a run, mirroring the per-second throughput plots in the paper
 * (Figures 2-5).
 */

#ifndef PERFORMA_SIM_TIME_SERIES_HH
#define PERFORMA_SIM_TIME_SERIES_HH

#include <cstddef>
#include <vector>

#include "sim/types.hh"

namespace performa::sim {

/**
 * Counts discrete occurrences (e.g. requests served) into fixed-width
 * time buckets; reading the series back yields a rate-per-second curve.
 */
class TimeSeries
{
  public:
    /** @param bucket_width Width of each bucket (default one second). */
    explicit TimeSeries(Tick bucket_width = sec(1))
        : bucketWidth_(bucket_width)
    {}

    /** Record @p count occurrences at time @p t. */
    void
    record(Tick t, std::uint64_t count = 1)
    {
        std::size_t idx = static_cast<std::size_t>(t / bucketWidth_);
        if (idx >= buckets_.size())
            buckets_.resize(idx + 1, 0);
        buckets_[idx] += count;
    }

    /**
     * Pre-allocate capacity for @p buckets buckets so recording stays
     * allocation-free until time passes the reservation.
     */
    void reserve(std::size_t buckets) { buckets_.reserve(buckets); }

    /** Number of buckets touched so far. */
    std::size_t size() const { return buckets_.size(); }

    /** Raw count in bucket @p idx (0 if beyond the recorded range). */
    std::uint64_t
    count(std::size_t idx) const
    {
        return idx < buckets_.size() ? buckets_[idx] : 0;
    }

    /** Rate (occurrences per second) in bucket @p idx. */
    double
    rate(std::size_t idx) const
    {
        return static_cast<double>(count(idx)) / toSeconds(bucketWidth_);
    }

    /** Sum of counts over the half-open tick interval [from, to). */
    std::uint64_t total(Tick from, Tick to) const;

    /** Mean rate (per second) over the tick interval [from, to). */
    double meanRate(Tick from, Tick to) const;

  private:
    Tick bucketWidth_;
    std::vector<std::uint64_t> buckets_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_TIME_SERIES_HH
