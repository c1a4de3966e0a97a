/**
 * @file
 * The benchmark's own arithmetic: the percentile rule, medians, and
 * the serving formulas (load accuracy, control pacing). Pure
 * functions, unit-tested in tests/test_measure.cc.
 */

#ifndef TWIGBENCH_MEASURE_HH
#define TWIGBENCH_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace twigbench {

/** Samples a percentile needs beyond it before it may be reported. */
inline constexpr std::size_t kSamplesBeyondPercentile = 10;

/** 1-based nearest rank of percentile @p q (0 < q <= 100) among
 * @p n samples: ceil(q/100 * n), at least 1. */
std::size_t nearestRank(double q, std::size_t n);

/** Samples strictly above the nearest rank of @p q. */
std::size_t samplesBeyond(double q, std::size_t n);

/** Whether percentile @p q of @p n samples has at least
 * kSamplesBeyondPercentile samples beyond it. */
bool percentileSupported(double q, std::size_t n);

/** Smallest sample count for which percentile @p q is supported. */
std::size_t samplesNeededFor(double q);

/** Nearest-rank percentile of @p samples (sorted in place); 0 when
 * empty. */
double percentile(std::vector<double> &samples, double q);

/** Median (mean of the two middle values for even counts); 0 when
 * empty. @p samples is reordered. */
double median(std::vector<double> samples);

/** 100 * min(observed, offered) / max(observed, offered); 100 when
 * both are 0, 0 when exactly one is. */
double loadAccuracyPct(double observed, double offered);

/** 100 * intervals * interval_s / wall_s: the share of wall time the
 * paced control loop kept up with (0 when wall_s <= 0). */
double ctlPacePct(std::uint64_t intervals, double interval_s,
                  double wall_s);

/** splitmix64 of (seed, stream): one independent 64-bit seed per
 * input stream of a workload. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace twigbench

#endif // TWIGBENCH_MEASURE_HH
