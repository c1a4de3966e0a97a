#include "measure.hh"

#include <algorithm>
#include <cmath>

namespace twigbench {

std::size_t
nearestRank(double q, std::size_t n)
{
    const double r = std::ceil(q / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1,
                                   std::max<std::size_t>(n, 1));
}

std::size_t
samplesBeyond(double q, std::size_t n)
{
    return n == 0 ? 0 : n - nearestRank(q, n);
}

bool
percentileSupported(double q, std::size_t n)
{
    return samplesBeyond(q, n) >= kSamplesBeyondPercentile;
}

std::size_t
samplesNeededFor(double q)
{
    std::size_t n = kSamplesBeyondPercentile;
    while (!percentileSupported(q, n))
        ++n;
    return n;
}

double
percentile(std::vector<double> &samples, double q)
{
    if (samples.empty())
        return 0.0;
    const std::size_t k = nearestRank(q, samples.size()) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    const std::size_t n = samples.size();
    if (n == 0)
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
loadAccuracyPct(double observed, double offered)
{
    const double hi = std::max(observed, offered);
    if (hi <= 0.0)
        return 100.0;
    return 100.0 * std::min(observed, offered) / hi;
}

double
ctlPacePct(std::uint64_t intervals, double interval_s, double wall_s)
{
    if (wall_s <= 0.0)
        return 0.0;
    return 100.0 * static_cast<double>(intervals) * interval_s / wall_s;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace twigbench
