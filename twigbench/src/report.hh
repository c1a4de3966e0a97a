/**
 * @file
 * One workload run's result: named metrics with units, correctness
 * checks, operation counts and the host fingerprint, written as a
 * single JSON line (the last line the binary prints; run.py turns it
 * into the benchmark's result line). Also the host probes the result
 * records: fingerprint, peak RSS, process CPU time, and a TSC-to-
 * nanosecond calibration for the repo's rdtsc phase counters.
 */

#ifndef TWIGBENCH_REPORT_HH
#define TWIGBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace twigbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady_clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Everything one workload run reports. */
class Report
{
  public:
    Report(std::string workload, std::uint64_t seed, double seconds,
           bool trace);

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a correctness check; a failed check makes the run
     * incorrect. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
    /** Record whether a measurement condition held (the generator kept
     * its schedule, ...). A run that breaks one is invalid as a
     * measurement, not incorrect as a program: it does not change
     * correct(). */
    void validity(const std::string &name, bool ok,
                  const std::string &detail = "");
    /** Free-form context (repetition counts, phase lengths, ...). */
    void info(const std::string &key, twig::common::Json value);

    void attempted(std::uint64_t n) { attempted_ += n; }
    void failed(std::uint64_t n) { failed_ += n; }

    bool correct() const;

    /** The whole result as one JSON object (host fingerprint and peak
     * RSS are sampled here). */
    twig::common::Json toJson() const;

  private:
    std::string workload_;
    std::uint64_t seed_;
    double seconds_;
    bool trace_;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
    std::vector<std::pair<std::string, std::pair<bool, std::string>>>
        checks_;
    std::vector<std::pair<std::string, std::pair<bool, std::string>>>
        validity_;
    twig::common::Json info_ = twig::common::Json::object();
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** CPU model, nproc, compiler and build flags of this binary. */
twig::common::Json hostFingerprint();

/** Peak resident set size of this process, MB. */
double peakRssMb();

/**
 * User + system CPU seconds of this process (all threads) / of the
 * calling thread. On a virtual machine with steal accounting, time the
 * host gave this vCPU to another guest is not counted; single_learn and
 * fleet_cohort measure host time on these clocks so that steal, one
 * source of run-to-run variation on a shared machine, stays out.
 */
double processCpuSeconds();
double threadCpuSeconds();

/** Converts the repo's rdtsc cycle counts to nanoseconds: calibrated
 * between construction and finish() against steady_clock. */
class TscCalibration
{
  public:
    TscCalibration();
    /** Close the calibration span. */
    void finish();
    double ns(std::uint64_t cycles) const
    {
        return static_cast<double>(cycles) * nsPerCycle_;
    }

  private:
    std::uint64_t tsc0_;
    Clock::time_point t0_;
    double nsPerCycle_ = 0.0;
};

} // namespace twigbench

#endif // TWIGBENCH_REPORT_HH
