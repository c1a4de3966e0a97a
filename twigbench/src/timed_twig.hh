/**
 * @file
 * TimedTwig: a TaskManager decorator around a TwigManager that times
 * the decide step from outside, split exactly as
 * TwigManager::decideInto composes it:
 *
 *   observe  = observeState (monitor + reward + replay + trainStep)
 *   select   = selectActions (greedyActions when exploit-only)
 *   apply    = applyDecision
 *
 * Every call also stamps its entry time, so the gap between two calls
 * is one whole control interval (decide + map + simulate). In stamp-
 * only mode the decorator forwards to decideInto and reads the clock
 * once per interval; that is how untraced runs get per-interval times
 * from the single topology, whose RecordSinks only see records after
 * the run. All times are CPU time of the deciding thread (see
 * threadCpuSeconds), so the manager must decide on one thread.
 *
 * It also accumulates what the interval telemetry says about requests
 * and energy, for the benchmark's correctness checks.
 */

#ifndef TWIGBENCH_TIMED_TWIG_HH
#define TWIGBENCH_TIMED_TWIG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/twig_manager.hh"
#include "harness/registry.hh"
#include "report.hh"

namespace twigbench {

class TimedTwig : public twig::core::TaskManager
{
  public:
    /** @param split  time observe/select/apply separately (traced);
     *                false only stamps interval boundaries. */
    TimedTwig(std::unique_ptr<twig::core::TwigManager> inner, bool split);

    std::string name() const override { return inner_->name(); }

    void decideInto(const twig::sim::ServerIntervalStats &stats,
                    std::vector<twig::core::ResourceRequest> &out) override;

    std::vector<twig::core::ResourceRequest>
    initialRequests(std::size_t num_services,
                    const twig::sim::MachineConfig &machine) const override
    {
        return inner_->initialRequests(num_services, machine);
    }

    twig::core::TwigManager &inner() { return *inner_; }

    /** CPU seconds between consecutive decide entries (one per interval
     * after the first). */
    const std::vector<double> &intervalSeconds() const
    {
        return intervals_;
    }

    std::uint64_t decides() const { return decides_; }
    double observeSeconds() const { return observeS_; }
    double selectSeconds() const { return selectS_; }
    double applySeconds() const { return applyS_; }

    std::uint64_t arrivals() const { return arrivals_; }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t dropped() const { return dropped_; }
    /** False once the cumulative socket energy went down or a p99 or
     * power reading was NaN or negative. */
    bool telemetrySane() const { return sane_; }

  private:
    std::unique_ptr<twig::core::TwigManager> inner_;
    bool split_;
    bool stamped_ = false;
    double last_ = 0.0;
    std::vector<double> intervals_;
    std::uint64_t decides_ = 0;
    double observeS_ = 0.0;
    double selectS_ = 0.0;
    double applyS_ = 0.0;
    std::uint64_t arrivals_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    double lastEnergyJ_ = 0.0;
    bool sane_ = true;
};

/** Build @p spec's TwigManager exactly as the builtin registry does and
 * wrap it (fatal when the factory does not return a TwigManager). */
std::unique_ptr<TimedTwig>
makeTimedTwig(const twig::harness::ManagerContext &ctx, bool split);

/**
 * The builtin registry with "twig" wrapped in split-timing TimedTwigs.
 * Every decorator built through it is appended to @p made (owned by
 * the fleet that asked for it; valid while that fleet lives). Cohort
 * batching needs a bare TwigManager, so use it only for fleets whose
 * nodes learn (they never form cohorts).
 */
twig::harness::ManagerRegistry
timedRegistry(std::vector<TimedTwig *> &made);

} // namespace twigbench

#endif // TWIGBENCH_TIMED_TWIG_HH
