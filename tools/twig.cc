/**
 * @file
 * twig — command-line driver for the Twig simulator.
 *
 * Runs any catalogue service mix under any registered task manager and
 * load pattern, on one server or on an N-node fleet, and reports the
 * QoS/energy outcome (plus fleet tail latency, scale and fault events
 * and the bill on a fleet), optionally writing the run's per-step
 * trace as one JSON-lines file (--trace; see harness::writeTrace for
 * the record kinds: run header, interval, fault, scale).
 * The run is a harness::ScenarioSpec — loaded from a scenario file
 * (--scenario; scenarios/ ships one per paper figure) or built from
 * the flags — executed by the harness::Engine, so a CLI invocation, a
 * scenario file and a bench cell are the same run. A scenario file
 * names its own topology; a flag-built run is a fleet exactly when
 * --nodes is given.
 *
 * Bad input (flags, scenario, service, checkpoint) and a trace file
 * that cannot be written exit 2 with a message; a --sim-profile phase
 * over the --profile-max-share budget exits 3.
 *
 * Examples:
 *   twig --service masstree --load 0.5
 *   twig --service masstree --service moses --manager parties
 *   twig --service xapian --steps 4000 --trace run.jsonl
 *   twig --service masstree --service img-dnn --nodes 8 \
 *       --policy p2c-latency --hetero --jobs 8
 *   twig --service masstree --nodes 1 --steps 700 \
 *       --save-checkpoint donor.ckpt
 *   twig --service masstree --nodes 4 --checkpoint donor.ckpt
 *   twig --scenario scenarios/fig05.json
 *   twig --scenario scenarios/fig12_cluster.json --steps 60 --jobs 8
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/flags.hh"
#include "faults/fault_spec.hh"
#include "harness/engine.hh"
#include "harness/scenario.hh"
#include "harness/sim_profile.hh"

using namespace twig;

namespace {

struct Options
{
    std::string scenario;
    std::vector<std::string> services;
    std::string manager = "twig";
    double load = 0.5;
    std::string pattern;
    std::size_t steps = 0;
    std::size_t window = 0;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    bool paper = false;
    std::size_t nodes = 0;
    std::size_t domains = 1;
    std::string policy = "p2c-latency";
    bool hetero = false;
    std::string checkpoint;
    std::string saveCheckpoint;
    std::size_t autoscaleMin = 0;
    std::size_t autoscaleMax = 0;
    std::string trace;
    std::string faults;
    bool simProfile = false;
    /** Flag phases above this share of simulator cycles (percent);
     * 100 disables the check. Requires --sim-profile. */
    double profileMaxShare = 100.0;
};

/** Flags that fix the run's shape, which a scenario file owns. */
const std::vector<std::string> kShapeFlags = {
    "--service", "--manager", "--load",   "--pattern",
    "--nodes",   "--policy",  "--hetero", "--checkpoint"};

/** Flags that only mean something on the cluster topology. */
const std::vector<std::string> kClusterFlags = {
    "--domains",    "--policy",          "--hetero",
    "--checkpoint", "--save-checkpoint", "--autoscale"};

common::FlagParser
makeParser(Options &opt)
{
    common::FlagParser p;
    p.addString("--scenario", &opt.scenario,
                "scenario file to run (the override flags below apply)");
    p.addStringList("--service", &opt.services, "catalogue service");
    p.addString("--manager", &opt.manager,
                "task manager (see the error text for valid names)");
    p.addDouble("--load", &opt.load,
                "load fraction of max; a fleet's peak fraction of its "
                "capacity (default 0.5)");
    p.addString("--pattern", &opt.pattern,
                "fixed | diurnal | step | ramp (default fixed; diurnal "
                "with --nodes)");
    p.addCount("--steps", &opt.steps,
               "control steps (default 2000; 400 with --nodes)", 1);
    p.addCount("--window", &opt.window,
               "metrics window (default steps/6; steps/4 on a fleet)");
    p.addCount("--seed", &opt.seed, "RNG seed (default 42)");
    p.addCount("--jobs", &opt.jobs,
               "node-stepping threads; results are bit-identical at "
               "any value (default 1)",
               1);
    p.addBool("--paper", &opt.paper,
              "use the paper's full hyper-parameters");
    p.addCount("--nodes", &opt.nodes,
               "run a fleet of this many replicas", 1);
    p.addCount("--domains", &opt.domains,
               "routing domains of the two-level front-end (default 1 "
               "= flat-equivalent)",
               1);
    p.addString("--policy", &opt.policy,
                "static | wrr | p2c-latency (default p2c-latency)");
    p.addBool("--hetero", &opt.hetero,
              "alternate full-size and 6-core nodes");
    p.addString("--checkpoint", &opt.checkpoint,
                "warm-start every Twig node from this BDQ checkpoint "
                "({cores} and {node} expand per node) and run it "
                "exploit-only");
    p.addString("--save-checkpoint", &opt.saveCheckpoint,
                "save node 0's trained BDQ after the run");
    p.addMinMax("--autoscale", &opt.autoscaleMin, &opt.autoscaleMax,
                "elastic fleet bounds MIN:MAX (overrides the "
                "scenario's bounds; keeps its other autoscale knobs)");
    p.addString("--trace", &opt.trace,
                "write the run's trace as JSON lines (run header, then "
                "fault/scale/interval records per step)");
    p.addString("--faults", &opt.faults,
                "fault-schedule file (replaces the scenario's own "
                "schedule)");
    p.addBool("--sim-profile", &opt.simProfile,
              "print the run's per-phase simulator cycle breakdown "
              "(cycles, calls, share), then the managers' set-up "
              "before it as one row");
    p.addDouble("--profile-max-share", &opt.profileMaxShare,
                "with --sim-profile: warn and exit 3 when any phase's "
                "share exceeds this percent (0, 100]",
                {.min = 0.0, .max = 100.0, .openMin = true});
    return p;
}

/** The spec this invocation describes; FatalError on bad input. */
harness::ScenarioSpec
buildSpec(const Options &opt, const common::FlagParser::Result &given)
{
    common::fatalIf(given.has("--profile-max-share") && !opt.simProfile,
                    "--profile-max-share needs --sim-profile");
    harness::ScenarioSpec spec;
    if (given.has("--scenario")) {
        for (const auto &flag : kShapeFlags)
            common::fatalIf(given.has(flag), flag,
                            " conflicts with --scenario (the scenario "
                            "file fixes the run's shape)");
        spec = harness::ScenarioSpec::fromFile(opt.scenario);
        if (given.has("--steps")) {
            spec.steps = opt.steps;
            if (spec.window > spec.steps)
                spec.window = 0;
            for (auto &event : spec.events)
                event.afterSteps = std::min(event.afterSteps, opt.steps);
        }
        if (given.has("--window"))
            spec.window = opt.window;
        if (given.has("--seed"))
            spec.seed = opt.seed;
        if (given.has("--domains"))
            spec.domains = opt.domains;
        spec.paper = spec.paper || opt.paper;
    } else {
        common::fatalIf(opt.services.empty(),
                        "need --service NAME or --scenario FILE (see "
                        "--help)");
        const bool fleet = given.has("--nodes");
        spec.name = "cli";
        spec.topology = fleet ? "cluster" : "single";
        for (const auto &name : opt.services) {
            harness::ServiceLoadSpec s;
            s.service = name;
            s.pattern = given.has("--pattern") ? opt.pattern
                : fleet                        ? "diurnal"
                                               : "fixed";
            s.fraction = opt.load;
            spec.services.push_back(std::move(s));
        }
        spec.manager = opt.manager;
        spec.paper = opt.paper;
        spec.steps = given.has("--steps") ? opt.steps : fleet ? 400 : 2000;
        spec.window = opt.window;
        spec.seed = opt.seed;
        if (fleet) {
            spec.nodes = opt.nodes;
            spec.domains = opt.domains;
            spec.policy = opt.policy;
            spec.hetero = opt.hetero;
            spec.checkpoint = opt.checkpoint;
        }
    }

    if (spec.topology != "cluster") {
        for (const auto &flag : kClusterFlags)
            common::fatalIf(given.has(flag), flag,
                            " needs a fleet (--nodes N or a cluster "
                            "scenario)");
    }
    if (given.has("--faults"))
        spec.faults = faults::FaultSpec::fromFile(opt.faults);
    if (given.has("--autoscale")) {
        auto cfg = spec.autoscale.value_or(autoscale::AutoscaleConfig{});
        cfg.minNodes = opt.autoscaleMin;
        cfg.maxNodes = opt.autoscaleMax;
        spec.autoscale = cfg;
        // Clamp the initial count so the bounds work with any --nodes.
        spec.nodes = std::clamp(spec.nodes, cfg.minNodes, cfg.maxNodes);
    }
    return spec;
}

void
printSingleSummary(const harness::ScenarioSpec &spec,
                   const harness::EngineResult &result)
{
    std::printf("%s over the last %zu of %zu steps "
                "(pattern %s, load %.0f%%):\n",
                result.managerName.c_str(),
                result.single.metrics.windowSteps, spec.steps,
                spec.services[0].pattern.c_str(),
                100 * spec.services[0].fraction);
    for (const auto &svc : result.single.metrics.services) {
        std::printf("  %-11s QoS %5.1f%%  mean tardiness %.2f  "
                    "(target met when <= 1)\n",
                    svc.name.c_str(), svc.qosGuaranteePct,
                    svc.meanTardiness);
    }
    std::printf("  mean power %.1f W, energy %.0f J\n",
                result.single.metrics.meanPowerW,
                result.single.metrics.energyJoules);
}

void
printFleetSummary(const harness::ScenarioSpec &spec,
                  const harness::EngineResult &result)
{
    const auto &m = result.fleet.metrics;
    std::printf("%zu-node fleet (%zu domain%s, %s routing, %s nodes%s) "
                "over the last %zu of %zu steps:\n",
                spec.nodes, spec.domains, spec.domains == 1 ? "" : "s",
                spec.policy.c_str(), spec.manager.c_str(),
                spec.hetero ? ", hetero" : "", m.windowSteps,
                spec.steps);
    for (std::size_t s = 0; s < m.serviceNames.size(); ++s) {
        std::printf("  %-11s fleet p99 %7.2f ms  QoS %5.1f%%\n",
                    m.serviceNames[s].c_str(), m.windowP99Ms[s],
                    m.qosGuaranteePct[s]);
    }
    std::printf("  fleet mean power %.1f W, energy %.0f J\n",
                m.meanPowerW, m.energyJoules);

    std::size_t scale_total = 0, fault_total = 0;
    std::map<cluster::ScaleEvent::Kind, std::size_t> scale;
    std::map<faults::FaultEventKind, std::size_t> fault;
    for (const auto &fs : result.fleet.trace) {
        scale_total += fs.scaleEvents.size();
        fault_total += fs.faultEvents.size();
        for (const auto &ev : fs.scaleEvents)
            ++scale[ev.kind];
        for (const auto &ev : fs.faultEvents)
            ++fault[ev.kind];
    }
    using Scale = cluster::ScaleEvent::Kind;
    using Fault = faults::FaultEventKind;
    if (spec.autoscale) {
        std::printf("  elastic fleet %zu..%zu nodes, scale events: %zu "
                    "(scale-outs %zu, drains %zu, retires %zu), fleet "
                    "bill $%.2f\n",
                    spec.autoscale->minNodes, spec.autoscale->maxNodes,
                    scale_total, scale[Scale::ScaleOut],
                    scale[Scale::DrainStart], scale[Scale::Retire],
                    m.costDollars);
    } else if (!spec.fleetClasses.empty()) {
        std::printf("  fleet bill $%.2f\n", m.costDollars);
    }
    if (!spec.faults.empty()) {
        std::printf("  fault events: %zu (warm restores %zu, cold "
                    "restarts %zu, corrupt frames detected %zu, shed "
                    "intervals %zu)\n",
                    fault_total, fault[Fault::WarmRestore],
                    fault[Fault::ColdRestart],
                    fault[Fault::CorruptDetected], fault[Fault::LoadShed]);
    }
}

/** Print the simulator phase breakdown of the run just finished (from
 * @p at_start, the counters when its first interval began), then the
 * set-up before it as one row, and warn about every run phase above
 * @p max_share_pct; true when any is. */
bool
printSimProfile(std::size_t steps, double max_share_pct,
                const harness::SimProfile &at_start)
{
    using common::simprof::Phase;
    std::printf("simulator phase breakdown (%zu steps):\n", steps);
    const auto prof = harness::SimProfile::snapshot().since(at_start);
    prof.print(stdout);
    harness::SimProfile::disable();
    // Every simulated interval runs the interference model once.
    std::printf("  set-up (manager construction, not in the shares): "
                "%llu cycles, %llu simulated intervals\n",
                static_cast<unsigned long long>(at_start.totalCycles()),
                static_cast<unsigned long long>(
                    at_start.phase(Phase::Interference).calls));
    const auto over = prof.phasesAbove(max_share_pct);
    for (const auto p : over) {
        std::printf("  WARNING: phase '%s' share %.2f%% exceeds the "
                    "--profile-max-share budget of %.2f%%\n",
                    common::simprof::phaseName(p), prof.sharePct(p),
                    max_share_pct);
    }
    return !over.empty();
}

int
run(const Options &opt, const common::FlagParser::Result &given)
{
    const auto spec = buildSpec(opt, given);

    // Opened before the run, so a bad path fails before any step.
    std::ofstream trace;
    if (!opt.trace.empty()) {
        trace.open(opt.trace);
        common::fatalIf(!trace, "cannot open trace file: ", opt.trace);
    }

    harness::EngineOptions engine_opts;
    engine_opts.jobs = opt.jobs;
    engine_opts.recordTrace = trace.is_open();
    engine_opts.saveCheckpoint = opt.saveCheckpoint;
    if (opt.simProfile) {
        harness::SimProfile::reset();
        harness::SimProfile::enable();
    }
    const auto result = harness::Engine(engine_opts).run(spec);
    const bool over_budget = opt.simProfile &&
        printSimProfile(spec.steps, opt.profileMaxShare,
                        result.profileAtRunStart);

    if (trace.is_open()) {
        const auto counts = harness::writeTrace(trace, spec, result);
        trace.flush();
        common::fatalIf(!trace, "cannot write trace file: ", opt.trace);
        std::printf("trace written to %s (%zu intervals, %zu events)\n",
                    opt.trace.c_str(), counts.intervals, counts.events);
    }
    if (!opt.saveCheckpoint.empty()) {
        std::printf("node 0 BDQ checkpoint written to %s\n",
                    opt.saveCheckpoint.c_str());
    }
    if (result.cluster)
        printFleetSummary(spec, result);
    else
        printSingleSummary(spec, result);
    // A blown phase budget is a soft failure: the run's numbers above
    // are still valid, but CI gets a distinct exit status.
    return over_budget ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const auto parser = makeParser(opt);
    const auto parsed = parser.parse(argc, argv);
    if (parsed.helpRequested) {
        std::printf("usage: %s --service NAME [--service NAME ...] "
                    "[--nodes N] [options]\n"
                    "       %s --scenario FILE [overrides]\n%s",
                    argv[0], argv[0], parser.usageLines().c_str());
        return 0;
    }
    try {
        common::fatalIf(!parsed.error.empty(), parsed.error);
        return run(opt, parsed);
    } catch (const common::FatalError &e) {
        std::fprintf(stderr, "twig: %s\n", e.what());
        return 2;
    }
}
