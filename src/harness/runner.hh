/**
 * @file
 * Experiment runner: drives a Server with a TaskManager through the
 * mapper for N control steps, optionally recording per-step traces
 * (for the mapping-distribution and varying-load figures) and
 * summarising metrics over the trailing window, the way the paper
 * reports results ("we summarise the results over the last 600 s /
 * 300 s").
 */

#ifndef TWIG_HARNESS_RUNNER_HH
#define TWIG_HARNESS_RUNNER_HH

#include <cstddef>
#include <vector>

#include "common/inline_vector.hh"
#include "core/mapper.hh"
#include "core/task_manager.hh"
#include "harness/metrics.hh"
#include "sim/server.hh"

namespace twig::harness {

/** One step of an experiment trace. A run keeps one per interval, so
 * the per-service values of up to two services (every colocation the
 * paper runs) are held inline, with no heap block; more spill to the
 * heap. */
struct TraceRecord
{
    template <class T>
    using PerService = common::InlineVector<T, 2>;

    std::size_t step = 0;
    /** Per-service requested cores / DVFS index for this interval. */
    PerService<std::size_t> cores;
    PerService<std::size_t> dvfs;
    PerService<double> p99Ms;
    PerService<double> offeredRps;
    double socketPowerW = 0.0;
};

/** Options for ExperimentRunner::run. */
struct RunOptions
{
    /** Total control steps. */
    std::size_t steps = 1000;
    /** Metrics are summarised over the last this-many steps. */
    std::size_t summaryWindow = 300;
    /** Record a per-step trace. */
    bool recordTrace = false;
};

/** Result of a run. */
struct RunResult
{
    RunMetrics metrics;
    std::vector<TraceRecord> trace;
};

/** Drives one (server, manager) pair. */
class ExperimentRunner
{
  public:
    ExperimentRunner(sim::Server &server, core::TaskManager &manager);

    /** Run the experiment; metrics cover the trailing summary window. */
    RunResult run(const RunOptions &options);

  private:
    sim::Server &server_;
    core::TaskManager &manager_;
    core::Mapper mapper_;
};

} // namespace twig::harness

#endif // TWIG_HARNESS_RUNNER_HH
