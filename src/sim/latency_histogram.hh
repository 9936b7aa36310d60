/**
 * @file
 * Fixed-layout HDR-style latency histogram, and the latency timeline
 * a load generator records: four whole-run stage histograms plus
 * per-second slices of the total stage.
 *
 * LatencyHistogram is log-linear bucketed: values below 2^S land in
 * width-1 buckets; each octave [2^k, 2^{k+1}) above that is split
 * into 2^(S-1) equal buckets, bounding the relative quantile error at
 * 2^(1-S) (~3% for S = 6). The layout is fixed at compile time and the
 * counts live inline, so a histogram is trivially copyable and
 * record() and merge() never touch the heap — which lets the load
 * generators record per-request latencies inside the allocation-free
 * message path.
 *
 * StageLatencyTimeline keeps a cumulative histogram per stage for
 * whole-run quantiles, and one slice per second for the total stage
 * only, so total response times can be sliced against the fault
 * timeline (the 7-stage windows of exp/stages.cc). Only the current
 * second is dense: 705 32-bit counts beside its sum and max. When a
 * sample lands in a later second, the open slice is sealed into a
 * packed arena as its non-zero (bucket, count) pairs behind a 24-byte
 * header; an empty second costs the header alone. The mean
 * switch-down second uses 38 of the 705 buckets, so a sealed second
 * takes about 330 bytes instead of 2 848. window() expands sealed
 * slices and the open one into an ordinary 64-bit histogram, so
 * nothing recorded changes.
 */

#ifndef PERFORMA_SIM_LATENCY_HISTOGRAM_HH
#define PERFORMA_SIM_LATENCY_HISTOGRAM_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace performa::sim {

class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: relative error <= 2^(1-subBucketBits). */
    static constexpr unsigned subBucketBits = 6;
    /** Values at or above this saturate into the overflow bucket
     *  (microseconds; well past the 6 s request timeout). */
    static constexpr std::uint64_t maxValue = sec(64);

    /** Record one (or @p n) sample(s) of @p value_us microseconds. */
    void
    record(std::uint64_t value_us, std::uint64_t n = 1)
    {
        recordAt(indexFor(value_us), value_us, n);
    }

    /**
     * Quantile @p q in [0, 1] as an upper bound on the true value
     * (the containing bucket's highest equivalent value, clamped to
     * the largest recorded sample). NaN when empty.
     */
    double quantile(double q) const;

    /** Samples with value <= @p value_us (bucket-granular: counts
     *  every bucket whose upper bound is <= value_us). */
    std::uint64_t countAtOrBelow(std::uint64_t value_us) const;

    /** Fraction of samples <= @p value_us; 1.0 when empty (an empty
     *  window carries no evidence of an SLO violation). */
    double
    fractionAtOrBelow(std::uint64_t value_us) const
    {
        if (total_ == 0)
            return 1.0;
        return static_cast<double>(countAtOrBelow(value_us)) /
               static_cast<double>(total_);
    }

    /** Add @p other's samples into this histogram. */
    void merge(const LatencyHistogram &other);

    void clear() { *this = LatencyHistogram{}; }

    /** Equal in every bucket, count, sum and max. */
    bool operator==(const LatencyHistogram &) const = default;

    std::uint64_t count() const { return total_; }
    bool empty() const { return total_ == 0; }
    std::uint64_t maxRecorded() const { return max_; }
    double
    mean() const
    {
        return total_ ? static_cast<double>(sum_) /
                            static_cast<double>(total_)
                      : 0.0;
    }

  private:
    friend class StageLatencyTimeline; ///< records and expands slices

    static constexpr std::uint64_t linearMax = 1ull << subBucketBits;
    /** Highest octave holding a representable value (maxValue - 1). */
    static constexpr unsigned topOctave = std::bit_width(maxValue - 1) - 1;
    /** Linear region + per-octave sub-buckets + one overflow bucket. */
    static constexpr std::size_t numBuckets =
        linearMax + (topOctave - subBucketBits + 1) * (linearMax / 2) + 1;

    static std::size_t indexFor(std::uint64_t v);

    /** record() into bucket @p idx, already worked out for @p value_us. */
    void
    recordAt(std::size_t idx, std::uint64_t value_us, std::uint64_t n = 1)
    {
        counts_[idx] += n;
        total_ += n;
        sum_ += value_us * n;
        if (value_us > max_)
            max_ = value_us;
    }

    /** Highest value mapping to bucket @p idx (inclusive bound). */
    static std::uint64_t bucketUpperBound(std::size_t idx);

    std::array<std::uint64_t, numBuckets> counts_{}; ///< last = overflow
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/** Request-lifetime stages a client can attribute latency to. */
enum class LatencyStage : int
{
    Connect = 0, ///< request sent -> accepted by a server
    Queue,       ///< accepted -> file fetch begins (incl. forwarding)
    Service,     ///< fetch begins -> response at the client
    Total,       ///< request sent -> response at the client
};

inline constexpr int numLatencyStages = 4;

const char *latencyStageName(LatencyStage s);

/**
 * Whole-run latency histograms for every stage, plus one-second
 * slices of the total stage, mirroring the per-second throughput
 * series.
 */
class StageLatencyTimeline
{
  public:
    StageLatencyTimeline() = default;
    /** Reserve room for @p reserve_slices one-second slices, each with
     *  all 705 buckets in use: one block of headers and one of
     *  (bucket, count) pairs. Pages nothing writes cost no memory.
     *  Slices exist only up to the last second recorded, so a copy
     *  holds the run so far. Recording past the reservation grows
     *  the blocks (allocates). */
    explicit StageLatencyTimeline(std::size_t reserve_slices)
    {
        sealed_.reserve(reserve_slices);
        bins_.reserve(reserve_slices * LatencyHistogram::numBuckets);
    }

    /** Record a @p value_us sample completed at time @p at. */
    void
    record(LatencyStage s, Tick at, std::uint64_t value_us)
    {
        std::size_t b = LatencyHistogram::indexFor(value_us);
        cumulative_[static_cast<int>(s)].recordAt(b, value_us);
        if (s != LatencyStage::Total)
            return;
        std::size_t second = static_cast<std::size_t>(at / sec(1));
        if (second != sealed_.size()) {
            if (second < sealed_.size()) {
                late_.push_back({second, value_us});
                return;
            }
            sealUntil(second);
        }
        ++open_.counts[b];
        open_.sum += value_us;
        if (value_us > open_.max)
            open_.max = value_us;
    }

    /** Whole-run histogram for one stage. */
    const LatencyHistogram &
    cumulative(LatencyStage s) const
    {
        return cumulative_[static_cast<int>(s)];
    }

    /** Merged histogram over the total stage's slices overlapping
     *  [from, to). PANICs for any other stage: only Total keeps
     *  slices. */
    LatencyHistogram window(LatencyStage s, Tick from, Tick to) const;

    /** Slices up to the last second recorded into the total stage. */
    std::size_t
    sliceCount() const
    {
        return cumulative(LatencyStage::Total).empty() ? 0
                                                       : sealed_.size() + 1;
    }

  private:
    /** A finished second: its pairs are bins_[previous end, end). */
    struct Sealed
    {
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
        std::size_t end = 0;
    };

    /** One non-zero bucket of a sealed second. */
    struct Bin
    {
        std::uint32_t bucket;
        std::uint32_t count;
    };

    /** A sample recorded into a second already sealed. The simulation
     *  records at its own clock and never takes this path. */
    struct Late
    {
        std::size_t second;
        std::uint64_t value;
    };

    /** Seal the open second, then every second before @p second as
     *  empty, leaving @p second open. */
    void sealUntil(std::size_t second);

    /** The second being recorded, in LatencyHistogram's layout. */
    struct Open
    {
        std::array<std::uint32_t, LatencyHistogram::numBuckets> counts{};
        std::uint64_t sum = 0;
        std::uint64_t max = 0;
    };

    std::vector<Sealed> sealed_; ///< Total, one per finished second
    std::vector<Bin> bins_;      ///< every sealed second's pairs
    std::vector<Late> late_;
    Open open_; ///< second sealed_.size()
    std::array<LatencyHistogram, numLatencyStages> cumulative_;
};

} // namespace performa::sim

#endif // PERFORMA_SIM_LATENCY_HISTOGRAM_HH
