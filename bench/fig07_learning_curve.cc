/**
 * @file
 * Fig. 7 reproduction: learning-time complexity — QoS guarantee over
 * time for Masstree under Twig-S and Hipster. Each curve is one
 * ScenarioSpec run through the scenario engine, bucketed from the
 * run's recorded per-step trace.
 *
 * Paper setup: Twig's epsilon anneals to 0.1 by 5000 s and Hipster's
 * learning phase ends at 5000 s; each point averages 500 s. Expected
 * shape: Hipster starts higher (its heuristic embeds prior knowledge
 * of the power ordering) but Twig-S crosses 80 % guarantee sooner and
 * ends higher, without any prior system knowledge.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "bench/managers.hh"
#include "harness/engine.hh"
#include "harness/sweep.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

/** Guarantee percentage of each consecutive @p bucket steps of the
 * watched service's recorded trace. */
std::vector<double>
qosCurve(const harness::RunResult &run, double target_ms,
         std::size_t bucket)
{
    std::vector<double> curve;
    std::size_t met = 0;
    std::size_t n = 0;
    for (const auto &r : run.trace) {
        met += r.p99Ms[0] <= target_ms ? 1 : 0;
        if (++n == bucket) {
            curve.push_back(100.0 * static_cast<double>(met) /
                            static_cast<double>(n));
            met = 0;
            n = 0;
        }
    }
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    // Paper: anneal to 0.1 in 5000 s, 500 s buckets. Compressed: the
    // same fractions of a 1500-step run.
    const std::size_t steps = args.full ? 10000 : 1500;
    const std::size_t bucket = args.full ? 500 : 75;
    const auto profile = services::masstree();

    bench::banner("Fig. 7: QoS guarantee over time while learning "
                  "(Masstree @ 50%)");

    // The two curves are independent experiments; fan them across
    // --jobs threads. Both managers watch the same workload (server
    // seeded by args.seed), as in the paper's figure.
    harness::SweepOptions sweep_opts;
    sweep_opts.jobs = args.jobs;
    sweep_opts.baseSeed = args.seed;
    const harness::ParallelSweep sweep(sweep_opts);
    const auto curves = sweep.map<std::vector<double>>(
        2, [&](std::size_t idx, std::uint64_t run_seed) {
            harness::ScenarioSpec spec;
            spec.name = "fig07";
            harness::ServiceLoadSpec svc;
            svc.service = profile.name;
            svc.fraction = 0.5;
            spec.services.push_back(svc);
            spec.manager = idx == 0 ? "twig" : "hipster";
            spec.paper = args.full;
            spec.managerSeed = run_seed;
            spec.steps = steps;
            spec.window = steps;
            spec.horizon = steps / 2; // epsilon ~0.1 by mid-run
            spec.seed = args.seed;

            harness::EngineOptions opts;
            opts.recordTrace = true;
            return qosCurve(harness::Engine(opts).run(spec).single,
                            profile.qosTargetMs, bucket);
        });
    const auto &twig_curve = curves[0];
    const auto &hip_curve = curves[1];

    std::printf("%-12s %10s %10s\n", "steps", "Twig-S", "Hipster");
    for (std::size_t i = 0; i < twig_curve.size(); ++i) {
        std::printf("%-12zu %9.1f%% %9.1f%%\n", (i + 1) * bucket,
                    twig_curve[i],
                    i < hip_curve.size() ? hip_curve[i] : 0.0);
    }

    auto tail_mean = [](const std::vector<double> &curve) {
        double s = 0.0;
        const std::size_t q = curve.size() / 2;
        for (std::size_t i = q; i < curve.size(); ++i)
            s += curve[i];
        return s / static_cast<double>(curve.size() - q);
    };
    std::printf("\nsecond-half mean guarantee: Twig-S %.1f%%, Hipster "
                "%.1f%%\n",
                tail_mean(twig_curve), tail_mean(hip_curve));
    std::printf("paper shape: Hipster starts higher (its heuristic "
                "embeds prior knowledge of the\npower ordering and "
                "begins from the safest configuration) but Twig-S "
                "overtakes it\nand holds a higher, more stable "
                "guarantee once epsilon anneals.\n");
    return 0;
}
