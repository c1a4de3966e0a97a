/**
 * @file
 * The three benchmark workloads and the measurement helpers they
 * share. Each workload builds its inputs from the seed, runs for the
 * requested wall time, checks its outputs, and fills a Report; see
 * twigbench/README.md for what each measures and why.
 */

#ifndef TWIGBENCH_WORKLOADS_HH
#define TWIGBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "harness/sim_profile.hh"
#include "report.hh"
#include "timed_twig.hh"

namespace twigbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Root of the source tree (scenarios/, fig01 trace CSV). */
    std::string repo = ".";
    /** Scratch directory inside the checkout (donor checkpoints). */
    std::string scratch;
};

void runSingleLearn(const Options &opt, Report &report);
void runFleetCohort(const Options &opt, Report &report);
void runServeLive(const Options &opt, Report &report);

// --- shared helpers --------------------------------------------------

/** Times of setting up one workload several times; setup_s is their
 * median. */
void reportSetup(Report &report, const std::vector<double> &seconds);

/** interval_ms_p50 / interval_ms_p95 / intervals_per_s from per-
 * interval host times, with the percentile-support check. */
void reportIntervals(Report &report, std::vector<double> interval_s,
                     double intervals_per_s);

/** sim.* per-layer metrics from a SimProfile delta covering
 * @p node_intervals simulated node-intervals and @p arrivals requests;
 * @p cpu_s is the process CPU time of the same intervals (node steps
 * run on several threads, so shares are of CPU time, not wall time). */
void reportSimLayer(Report &report, const twig::harness::SimProfile &delta,
                    const TscCalibration &tsc, double node_intervals,
                    double arrivals, double cpu_s);

/** rl/nn/core per-layer metrics from split-timing decorators, against
 * @p host_interval_s of the same intervals. */
void reportDecideLayer(Report &report,
                       const std::vector<TimedTwig *> &managers,
                       double host_interval_s);

/** cluster.* phase shares of @p wall_s fleet-step time. */
void reportClusterLayer(Report &report,
                        const twig::cluster::FleetPhaseProfile &profile,
                        const TscCalibration &tsc, double wall_s,
                        double cohort_nodes_pct, double step_ms);

/** Traced against untraced speed of the same intervals. */
void reportTraceOverhead(Report &report, double untraced_per_s,
                         double traced_per_s);

/** FNV-1a chain over one fleet interval's outcome (fleet p99s,
 * power, offered and shed load). */
std::uint64_t fleetChecksum(const twig::cluster::FleetIntervalStats &fs,
                            std::uint64_t h);

/** True when every p99 and the power of @p fs are finite and >= 0. */
bool fleetTelemetrySane(const twig::cluster::FleetIntervalStats &fs);

/** Hex form of a checksum for reports. */
std::string hex(std::uint64_t v);

} // namespace twigbench

#endif // TWIGBENCH_WORKLOADS_HH
