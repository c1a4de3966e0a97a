/**
 * @file
 * Fig. 8 reproduction: transfer learning with Twig-S.
 *
 * Paper setup: learn on Masstree for 10 000 s, then transfer the
 * weights (re-initialising the specialised output layers) to Moses,
 * Img-dnn and Xapian in consecutive experiments, each at 50 % of max
 * load, and compare QoS guarantee / tardiness against learning from
 * scratch. The learn-then-swap sequence is a ScenarioSpec event
 * (transfer + new service mix); the scratch run is a plain spec.
 * Expected shape: transfer reaches a high QoS guarantee ~1/3 sooner
 * while ending at similar tardiness (it still learns to minimise
 * energy, not just to over-provision).
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
    std::vector<double> qosPct;
    std::vector<double> tardiness;
};

/** Per-bucket QoS guarantee / mean tardiness of the watched service
 * over the run's recorded trace. */
Curve
runSpec(const harness::ScenarioSpec &spec, double target_ms,
        std::size_t bucket)
{
    harness::EngineOptions opts;
    opts.recordTrace = true;
    const auto result = harness::Engine(opts).run(spec);
    Curve curve;
    std::size_t met = 0;
    std::size_t n = 0;
    double tard = 0.0;
    for (const auto &r : result.single.trace) {
        met += r.p99Ms[0] <= target_ms ? 1 : 0;
        tard += r.p99Ms[0] / target_ms;
        if (++n == bucket) {
            curve.qosPct.push_back(100.0 * met / n);
            curve.tardiness.push_back(tard / n);
            met = n = 0;
            tard = 0.0;
        }
    }
    return curve;
}

std::size_t
stepsTo(const Curve &c, double pct, std::size_t bucket)
{
    for (std::size_t i = 0; i < c.qosPct.size(); ++i) {
        if (c.qosPct[i] >= pct)
            return (i + 1) * bucket;
    }
    return c.qosPct.size() * bucket;
}

harness::ServiceLoadSpec
halfLoad(const std::string &service)
{
    harness::ServiceLoadSpec svc;
    svc.service = service;
    svc.fraction = 0.5;
    return svc;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    const std::size_t learn_steps = args.full ? 10000 : 1500;
    const std::size_t adapt_steps = args.full ? 3000 : 600;
    const std::size_t bucket = args.full ? 300 : 60;

    bench::banner("Fig. 8: Twig-S transfer learning "
                  "(Masstree -> Moses/Img-dnn/Xapian @ 50%)");

    for (const char *target : {"moses", "img-dnn", "xapian"}) {
        const auto target_profile = services::byName(target);

        // (a) Transfer: pre-train on masstree, swap service, keep the
        //     trunk, re-anneal epsilon over a short window.
        harness::ScenarioSpec spec;
        spec.name = "fig08";
        spec.services.push_back(halfLoad("masstree"));
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
        transfer.service = target;
        transfer.specSeed = args.seed ^ 5;
        transfer.reexploreSteps = adapt_steps / 6;
        swap.transfers.push_back(transfer);
        swap.services.push_back(halfLoad(target));
        swap.serverSeed = args.seed + 2; // watched-phase server
        spec.events.push_back(swap);

        const auto transfer_curve =
            runSpec(spec, target_profile.qosTargetMs, bucket);

        // (b) Scratch: a fresh Twig given the same adaptation budget.
        harness::ScenarioSpec scratch_spec;
        scratch_spec.name = "fig08-scratch";
        scratch_spec.services.push_back(halfLoad(target));
        scratch_spec.manager = "twig";
        scratch_spec.paper = args.full;
        scratch_spec.managerSeed = args.seed + 3;
        scratch_spec.steps = adapt_steps;
        scratch_spec.window = adapt_steps;
        scratch_spec.horizon = adapt_steps;
        scratch_spec.seed = args.seed + 2; // same watched workload

        const auto scratch =
            runSpec(scratch_spec, target_profile.qosTargetMs, bucket);

        std::printf("\n--- masstree -> %s ---\n", target);
        std::printf("%-10s %18s %18s\n", "steps",
                    "transfer QoS/tard", "scratch QoS/tard");
        for (std::size_t i = 0; i < transfer_curve.qosPct.size(); ++i) {
            std::printf("%-10zu %10.1f%%/%5.2f %10.1f%%/%5.2f\n",
                        (i + 1) * bucket, transfer_curve.qosPct[i],
                        transfer_curve.tardiness[i],
                        i < scratch.qosPct.size() ? scratch.qosPct[i]
                                                  : 0.0,
                        i < scratch.tardiness.size()
                            ? scratch.tardiness[i]
                            : 0.0);
        }
        const auto t80 = stepsTo(transfer_curve, 80.0, bucket);
        const auto s80 = stepsTo(scratch, 80.0, bucket);
        std::printf("steps to 80%% guarantee: transfer %zu vs scratch "
                    "%zu (%.0f%% faster; paper: ~33%%)\n",
                    t80, s80,
                    s80 > 0 ? 100.0 * (1.0 - static_cast<double>(t80) /
                                                 s80)
                            : 0.0);
    }
    return 0;
}
