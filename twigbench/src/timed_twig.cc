#include "timed_twig.hh"

#include <cmath>

#include "common/error.hh"

namespace twigbench {

TimedTwig::TimedTwig(std::unique_ptr<twig::core::TwigManager> inner,
                     bool split)
    : inner_(std::move(inner)), split_(split)
{
}

void
TimedTwig::decideInto(const twig::sim::ServerIntervalStats &stats,
                      std::vector<twig::core::ResourceRequest> &out)
{
    const double t0 = threadCpuSeconds();
    if (stamped_)
        intervals_.push_back(t0 - last_);
    stamped_ = true;
    last_ = t0;
    ++decides_;

    for (const auto &svc : stats.services) {
        arrivals_ += svc.arrivals;
        completed_ += svc.completed;
        dropped_ += svc.dropped;
        sane_ = sane_ && std::isfinite(svc.p99Ms) && svc.p99Ms >= 0.0;
    }
    sane_ = sane_ && std::isfinite(stats.socketPowerW) &&
        stats.socketPowerW >= 0.0 && stats.energyJoules >= lastEnergyJ_;
    lastEnergyJ_ = stats.energyJoules;

    if (!split_) {
        inner_->decideInto(stats, out);
        return;
    }
    const std::vector<float> &state = inner_->observeState(stats);
    const double t1 = threadCpuSeconds();
    const auto actions = inner_->exploitOnly()
        ? inner_->learner().greedyActions(state)
        : inner_->learner().selectActions(state);
    const double t2 = threadCpuSeconds();
    inner_->applyDecision(actions, out);
    const double t3 = threadCpuSeconds();
    observeS_ += t1 - t0;
    selectS_ += t2 - t1;
    applyS_ += t3 - t2;
}

std::unique_ptr<TimedTwig>
makeTimedTwig(const twig::harness::ManagerContext &ctx, bool split)
{
    std::unique_ptr<twig::core::TaskManager> base =
        twig::harness::ManagerRegistry::builtin().make("twig", ctx);
    auto *twig = dynamic_cast<twig::core::TwigManager *>(base.get());
    twig::common::fatalIf(twig == nullptr,
                          "twigbench: the twig factory did not build a "
                          "TwigManager");
    base.release();
    return std::make_unique<TimedTwig>(
        std::unique_ptr<twig::core::TwigManager>(twig), split);
}

twig::harness::ManagerRegistry
timedRegistry(std::vector<TimedTwig *> &made)
{
    twig::harness::ManagerRegistry registry =
        twig::harness::ManagerRegistry::builtin();
    registry.add("twig", false,
                 [&made](const twig::harness::ManagerContext &ctx)
                     -> std::unique_ptr<twig::core::TaskManager> {
                     auto timed = makeTimedTwig(ctx, true);
                     made.push_back(timed.get());
                     return timed;
                 });
    return registry;
}

} // namespace twigbench
