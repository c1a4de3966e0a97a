/**
 * @file
 * Fig. 9 reproduction: transfer learning with Twig-C.
 *
 * Paper setup: learn with (Moses @ 50%, Masstree @ 20%) colocated,
 * then swap Moses for Xapian (@ 50%) after the learning phase, with
 * and without transfer learning. The swap is a ScenarioSpec event;
 * the no-transfer arm is a plain spec on the post-swap mix. Expected
 * shape: without transfer the QoS guarantee drops and energy spikes
 * until the agent re-learns; with transfer it adapts within tens of
 * steps.
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/managers.hh"
#include "harness/engine.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

struct Curve
{
    std::vector<double> qosXapian;
    std::vector<double> qosMasstree;
    std::vector<double> powerW;
};

harness::ServiceLoadSpec
fixedLoad(const std::string &service, double fraction)
{
    harness::ServiceLoadSpec svc;
    svc.service = service;
    svc.fraction = fraction;
    return svc;
}

/** Per-bucket QoS guarantee of both services and mean socket power
 * over the run's recorded trace. */
Curve
runSpec(const harness::ScenarioSpec &spec, std::size_t bucket)
{
    const double target0 = services::xapian().qosTargetMs;
    const double target1 = services::masstree().qosTargetMs;
    harness::EngineOptions opts;
    opts.recordTrace = true;
    const auto result = harness::Engine(opts).run(spec);
    Curve curve;
    std::size_t met0 = 0;
    std::size_t met1 = 0;
    std::size_t n = 0;
    double power = 0.0;
    for (const auto &r : result.single.trace) {
        met0 += r.p99Ms[0] <= target0 ? 1 : 0;
        met1 += r.p99Ms[1] <= target1 ? 1 : 0;
        power += r.socketPowerW;
        if (++n == bucket) {
            curve.qosXapian.push_back(100.0 * met0 / n);
            curve.qosMasstree.push_back(100.0 * met1 / n);
            curve.powerW.push_back(power / n);
            met0 = met1 = n = 0;
            power = 0.0;
        }
    }
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    const std::size_t learn_steps = args.full ? 10000 : 1500;
    const std::size_t adapt_steps = args.full ? 3000 : 600;
    const std::size_t bucket = args.full ? 300 : 60;

    bench::banner("Fig. 9: Twig-C transfer learning "
                  "((moses,masstree) -> (xapian,masstree))");

    // With transfer: learn with moses + masstree, then swap moses ->
    // xapian keeping the trunk weights.
    harness::ScenarioSpec spec;
    spec.name = "fig09";
    spec.services.push_back(fixedLoad("moses", 0.5));
    spec.services.push_back(fixedLoad("masstree", 0.2));
    spec.manager = "twig";
    spec.paper = args.full;
    spec.managerSeed = args.seed;
    spec.steps = adapt_steps;
    spec.window = adapt_steps;
    spec.horizon = learn_steps;
    spec.seed = args.seed + 1; // learning-phase server

    harness::ScenarioEvent swap;
    swap.afterSteps = learn_steps;
    harness::TransferSpec transfer;
    transfer.serviceIndex = 0;
    transfer.service = "xapian";
    transfer.specSeed = args.seed ^ 9;
    transfer.reexploreSteps = adapt_steps / 6;
    swap.transfers.push_back(transfer);
    swap.services.push_back(fixedLoad("xapian", 0.5));
    swap.services.push_back(fixedLoad("masstree", 0.2));
    swap.serverSeed = args.seed + 2; // adaptation-phase server
    spec.events.push_back(swap);

    const auto with_tl = runSpec(spec, bucket);

    // No transfer — a fresh Twig-C learns the pair from scratch over
    // the same window.
    harness::ScenarioSpec scratch;
    scratch.name = "fig09-scratch";
    scratch.services.push_back(fixedLoad("xapian", 0.5));
    scratch.services.push_back(fixedLoad("masstree", 0.2));
    scratch.manager = "twig";
    scratch.paper = args.full;
    scratch.managerSeed = args.seed + 3;
    scratch.steps = adapt_steps;
    scratch.window = adapt_steps;
    scratch.horizon = adapt_steps;
    scratch.seed = args.seed + 2; // same adaptation workload

    const auto without = runSpec(scratch, bucket);

    std::printf("%-8s | %-26s | %-26s\n", "steps",
                "with transfer (xap/mas/W)",
                "no transfer (xap/mas/W)");
    for (std::size_t i = 0; i < with_tl.qosXapian.size(); ++i) {
        std::printf("%-8zu | %6.1f%% %6.1f%% %6.1f | %6.1f%% %6.1f%% "
                    "%6.1f\n",
                    (i + 1) * bucket, with_tl.qosXapian[i],
                    with_tl.qosMasstree[i], with_tl.powerW[i],
                    without.qosXapian[i], without.qosMasstree[i],
                    without.powerW[i]);
    }
    std::printf("\npaper shape: with transfer the agent adapts to the "
                "service change within tens of\nsteps; from scratch "
                "the guarantee starts low and climbs as epsilon "
                "anneals.\n");
    return 0;
}
