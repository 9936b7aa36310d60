#include "sim/random.hh"

#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace performa::sim {

ZipfSampler::ZipfSampler(std::size_t n, double alpha) : alpha_(alpha)
{
    if (n == 0)
        FATAL("ZipfSampler needs at least one item");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;
    cdf_.back() = 1.0; // guard against rounding

    if (n > std::numeric_limits<std::uint32_t>::max())
        FATAL("ZipfSampler supports at most 2^32 - 1 items");
    guide_.resize(guideSize);
    std::size_t i = 0;
    for (std::size_t k = 0; k < guideSize; ++k) {
        double edge = static_cast<double>(k) / guideSize;
        while (cdf_[i] < edge) // stops at n - 1: cdf_.back() == 1.0
            ++i;
        guide_[k] = static_cast<std::uint32_t>(i);
    }
}

std::size_t
ZipfSampler::itemAt(double u) const
{
    // Every item before guide_[k] has cdf < k/G <= u, and the item at
    // the next bucket's guide entry has cdf >= (k+1)/G > u: the answer
    // lies in [guide_[k], next]. The last bucket also takes u == 1.0,
    // bounded by the last item, whose cdf is exactly 1.
    std::size_t k = static_cast<std::size_t>(u * guideSize);
    if (k >= guideSize)
        k = guideSize - 1;
    std::size_t i = guide_[k];
    std::size_t hi = k + 1 < guideSize ? guide_[k + 1] : cdf_.size() - 1;
    while (i < hi && cdf_[i] < u)
        ++i;
    return i;
}

double
ZipfSampler::pmf(std::size_t i) const
{
    if (i >= cdf_.size())
        return 0.0;
    if (i == 0)
        return cdf_[0];
    return cdf_[i] - cdf_[i - 1];
}

double
ZipfSampler::coverage(std::size_t k) const
{
    if (k == 0)
        return 0.0;
    if (k >= cdf_.size())
        return 1.0;
    return cdf_[k - 1];
}

} // namespace performa::sim
