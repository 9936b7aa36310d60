#include "sim/latency_histogram.hh"

#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "sim/logging.hh"

namespace performa::sim {

std::size_t
LatencyHistogram::indexFor(std::uint64_t v)
{
    static_assert(numBuckets == 705);
    static_assert(std::is_trivially_copyable_v<LatencyHistogram>);
    if (v >= maxValue)
        return numBuckets - 1; // overflow
    if (v < linearMax)
        return static_cast<std::size_t>(v);
    unsigned k = 63u - static_cast<unsigned>(std::countl_zero(v));
    unsigned s = subBucketBits;
    return linearMax + (k - s) * (linearMax / 2) +
           ((v - (1ull << k)) >> (k - s + 1));
}

std::uint64_t
LatencyHistogram::bucketUpperBound(std::size_t idx)
{
    if (idx + 1 == numBuckets)
        return std::numeric_limits<std::uint64_t>::max();
    if (idx < linearMax)
        return idx;
    unsigned s = subBucketBits;
    std::size_t o = (idx - linearMax) / (linearMax / 2);
    std::size_t r = (idx - linearMax) % (linearMax / 2);
    unsigned k = s + static_cast<unsigned>(o);
    std::uint64_t width = 1ull << (k - s + 1);
    return (1ull << k) + r * width + width - 1;
}

double
LatencyHistogram::quantile(double q) const
{
    if (total_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < numBuckets; ++i) {
        cum += counts_[i];
        if (cum >= rank) {
            std::uint64_t hi = bucketUpperBound(i);
            return static_cast<double>(hi < max_ ? hi : max_);
        }
    }
    return static_cast<double>(max_);
}

std::uint64_t
LatencyHistogram::countAtOrBelow(std::uint64_t value_us) const
{
    std::uint64_t c = 0;
    for (std::size_t i = 0; i + 1 < numBuckets; ++i) {
        if (bucketUpperBound(i) > value_us)
            return c;
        c += counts_[i];
    }
    // Overflow bucket: everything there is <= the recorded maximum.
    if (counts_.back() && value_us >= max_)
        c += counts_.back();
    return c;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < numBuckets; ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    if (other.max_ > max_)
        max_ = other.max_;
}

const char *
latencyStageName(LatencyStage s)
{
    switch (s) {
      case LatencyStage::Connect:
        return "connect";
      case LatencyStage::Queue:
        return "queue";
      case LatencyStage::Service:
        return "service";
      case LatencyStage::Total:
        return "total";
    }
    return "?";
}

void
StageLatencyTimeline::sealUntil(std::size_t second)
{
    for (std::size_t b = 0; b < LatencyHistogram::numBuckets; ++b) {
        if (open_.counts[b]) {
            bins_.push_back({static_cast<std::uint32_t>(b), open_.counts[b]});
            open_.counts[b] = 0;
        }
    }
    sealed_.push_back({open_.sum, open_.max, bins_.size()});
    open_.sum = 0;
    open_.max = 0;
    sealed_.resize(second, Sealed{0, 0, bins_.size()});
}

LatencyHistogram
StageLatencyTimeline::window(LatencyStage s, Tick from, Tick to) const
{
    if (s != LatencyStage::Total)
        PANIC("StageLatencyTimeline::window: the ", latencyStageName(s),
              " stage keeps no per-second slices");
    LatencyHistogram out;
    if (to <= from)
        return out;
    std::size_t i0 = static_cast<std::size_t>(from / sec(1));
    std::size_t i1 = static_cast<std::size_t>((to + sec(1) - 1) / sec(1));
    if (i1 > sliceCount())
        i1 = sliceCount();
    for (std::size_t i = i0; i < i1 && i < sealed_.size(); ++i) {
        const Sealed &slice = sealed_[i];
        for (std::size_t k = i ? sealed_[i - 1].end : 0; k < slice.end; ++k) {
            out.counts_[bins_[k].bucket] += bins_[k].count;
            out.total_ += bins_[k].count;
        }
        out.sum_ += slice.sum;
        if (slice.max > out.max_)
            out.max_ = slice.max;
    }
    if (i0 <= sealed_.size() && sealed_.size() < i1) {
        for (std::size_t b = 0; b < LatencyHistogram::numBuckets; ++b) {
            out.counts_[b] += open_.counts[b];
            out.total_ += open_.counts[b];
        }
        out.sum_ += open_.sum;
        if (open_.max > out.max_)
            out.max_ = open_.max;
    }
    for (const Late &l : late_)
        if (l.second >= i0 && l.second < i1)
            out.record(l.value);
    return out;
}

} // namespace performa::sim
