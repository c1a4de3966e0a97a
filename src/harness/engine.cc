#include "harness/engine.hh"

#include <algorithm>
#include <ostream>
#include <span>

#include "common/error.hh"
#include "common/json.hh"
#include "core/twig_manager.hh"
#include "harness/profiling.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

namespace twig::harness {

namespace {

/** The simulator phase counters now when profiling is on, else zero. */
SimProfile
profileNow()
{
    return common::simprof::enabled() ? SimProfile::snapshot()
                                      : SimProfile{};
}

/** Peak RPS of one service-load entry. @p capacity_factor scales
 * relative peaks on the cluster topology (1.0 on single nodes);
 * absolute max_rps overrides skip it. */
double
effectiveMaxRps(const ServiceLoadSpec &spec,
                const sim::ServiceProfile &profile,
                double capacity_factor)
{
    if (spec.maxRps > 0.0)
        return spec.maxRps;
    return profile.maxLoadRps * spec.maxScale * capacity_factor;
}

/** Build the load generator of one entry. @p segment_steps feeds the
 * conventional per-pattern defaults (see ServiceLoadSpec). */
std::unique_ptr<sim::LoadGenerator>
makeLoadFromSpec(const ServiceLoadSpec &spec, double max_rps,
                 std::size_t segment_steps)
{
    const double high = spec.fraction;
    if (spec.pattern == "fixed")
        return std::make_unique<sim::FixedLoad>(max_rps, high);
    if (spec.pattern == "diurnal") {
        const double low =
            spec.lowFraction >= 0.0 ? spec.lowFraction : high * 0.4;
        const std::size_t period = spec.periodSteps
            ? spec.periodSteps
            : segment_steps / 4;
        return std::make_unique<sim::DiurnalLoad>(max_rps, low, high,
                                                  period);
    }
    if (spec.pattern == "step") {
        const double low = spec.lowFraction >= 0.0
            ? spec.lowFraction
            : std::max(0.1, high * 0.4);
        const std::size_t period = spec.periodSteps
            ? spec.periodSteps
            : std::max<std::size_t>(segment_steps / 50, 1);
        return std::make_unique<sim::StepwiseMonotonicLoad>(
            max_rps, low, spec.changeFactor, period);
    }
    if (spec.pattern == "ramp") {
        const double low =
            spec.lowFraction >= 0.0 ? spec.lowFraction : high * 0.25;
        const std::size_t duration =
            spec.periodSteps ? spec.periodSteps : segment_steps;
        return std::make_unique<sim::RampLoad>(max_rps, low, high,
                                               duration);
    }
    if (spec.pattern == "trace") {
        const double low =
            spec.lowFraction >= 0.0 ? spec.lowFraction : high * 0.4;
        const std::size_t period =
            spec.periodSteps ? spec.periodSteps : segment_steps;
        return sim::TraceLoad::fromCsv(max_rps, spec.tracePath,
                                       spec.traceColumn, low, high,
                                       period);
    }
    common::fatal("unknown load pattern: ", spec.pattern);
}

std::vector<sim::ServiceProfile>
profilesFor(const std::vector<ServiceLoadSpec> &loads)
{
    std::vector<sim::ServiceProfile> out;
    out.reserve(loads.size());
    for (const auto &s : loads)
        out.push_back(services::byName(s.service));
    return out;
}

} // namespace

std::string
expandCheckpoint(const std::string &path, std::size_t cores,
                 std::size_t node)
{
    std::string out = path;
    auto expand = [&out](const std::string &placeholder,
                         std::size_t value) {
        const std::string n = std::to_string(value);
        for (std::size_t pos = out.find(placeholder);
             pos != std::string::npos; pos = out.find(placeholder, pos)) {
            out.replace(pos, placeholder.size(), n);
            pos += n.size();
        }
    };
    expand("{cores}", cores);
    expand("{node}", node);
    return out;
}

// --- EngineResult ----------------------------------------------------

double
EngineResult::meanPowerW() const
{
    return cluster ? fleet.metrics.meanPowerW : single.metrics.meanPowerW;
}

double
EngineResult::energyJoules() const
{
    return cluster ? fleet.metrics.energyJoules
                   : single.metrics.energyJoules;
}

std::size_t
EngineResult::windowSteps() const
{
    return cluster ? fleet.metrics.windowSteps
                   : single.metrics.windowSteps;
}

double
EngineResult::avgQosGuaranteePct() const
{
    if (!cluster)
        return single.metrics.avgQosGuaranteePct();
    return fleet.metrics.avgQosGuaranteePct();
}

// --- Engine ----------------------------------------------------------

EngineResult
Engine::run(const ScenarioSpec &spec) const
{
    const ManagerRegistry &registry = options_.registry
        ? *options_.registry
        : ManagerRegistry::builtin();
    const std::string err = spec.validate(registry);
    common::fatalIf(!err.empty(), "scenario '", spec.name, "': ", err);
    if (spec.topology == "cluster")
        return runCluster(spec, registry);
    return runSingle(spec, registry);
}

EngineResult
Engine::runSingle(const ScenarioSpec &spec,
                  const ManagerRegistry &registry) const
{
    sim::MachineConfig machine;
    machine.numCores = spec.machineCores;
    const auto initial_profiles = profilesFor(spec.services);
    const Schedule sched{spec.steps, spec.resolvedWindow(),
                         spec.resolvedHorizon()};

    std::unique_ptr<core::TaskManager> owned;
    core::TaskManager *manager = options_.managerOverride;
    if (manager == nullptr) {
        ManagerContext ctx;
        ctx.machine = machine;
        ctx.profiles = initial_profiles;
        ctx.schedule = sched;
        ctx.full = spec.paper;
        ctx.seed = spec.managerSeed ? *spec.managerSeed : spec.seed + 1;
        ctx.knobs = spec.knobs;
        owned = registry.make(spec.manager, ctx);
        manager = owned.get();
    }

    auto build_server = [&](const std::vector<ServiceLoadSpec> &loads,
                            std::uint64_t seed,
                            std::size_t segment_steps) {
        auto server = std::make_unique<sim::Server>(machine, seed);
        for (const auto &s : loads) {
            const auto profile = services::byName(s.service);
            server->addService(
                profile,
                makeLoadFromSpec(s, effectiveMaxRps(s, profile, 1.0),
                                 segment_steps));
        }
        return server;
    };

    EngineResult result;
    result.profileAtRunStart = profileNow();

    // Event segments: each runs on its own server, metrics discarded.
    const std::vector<ServiceLoadSpec> *current = &spec.services;
    std::uint64_t server_seed = spec.seed;
    for (const auto &event : spec.events) {
        auto server =
            build_server(*current, server_seed, event.afterSteps);
        ExperimentRunner runner(*server, *manager);
        RunOptions run;
        run.steps = event.afterSteps;
        run.summaryWindow = event.afterSteps;
        runner.run(run);

        for (const auto &t : event.transfers) {
            auto *twig = dynamic_cast<core::TwigManager *>(manager);
            common::fatalIf(twig == nullptr,
                            "transfer event needs a TwigManager");
            twig->transferService(
                t.serviceIndex,
                makeTwigSpec(services::byName(t.service), machine,
                             t.specSeed),
                t.reexploreSteps);
        }
        if (!event.services.empty())
            current = &event.services;
        server_seed =
            event.serverSeed ? *event.serverSeed : spec.seed;
    }

    // Final (measured) segment.
    auto server = build_server(*current, server_seed, spec.steps);
    ExperimentRunner runner(*server, *manager);
    RunOptions run;
    run.steps = spec.steps;
    run.summaryWindow = sched.summaryWindow;
    run.recordTrace = options_.recordTrace;

    result.managerName = manager->name();
    result.single = runner.run(run);
    return result;
}

namespace {

/** Slot @p index's machine under @p spec: its fleet class when a class
 * list is set, else the hetero 18/6 alternation. */
sim::MachineConfig
nodeMachine(const ScenarioSpec &spec, std::size_t index)
{
    if (!spec.fleetClasses.empty()) {
        const std::string &id =
            spec.fleetClasses[index % spec.fleetClasses.size()];
        const autoscale::NodeClass *cls =
            autoscale::findNodeClass(spec.nodeClasses, id);
        common::fatalIf(cls == nullptr,
                        "nodeMachine: undefined node class '", id, "'");
        return cls->machine();
    }
    sim::MachineConfig m;
    m.numCores = spec.hetero && index % 2 == 1 ? 6 : spec.machineCores;
    return m;
}

/** --load keeps its meaning at any node count: relative peaks scale
 * with total fleet capacity vs one reference node. Autoscaled fleets
 * are rated at *full* (maxNodes) provisioning — the static-max
 * reference — so the load pattern's peak genuinely needs the whole
 * fleet. */
double
fleetCapacityFactor(const ScenarioSpec &spec)
{
    const sim::MachineConfig reference;
    const double ref_capacity =
        static_cast<double>(reference.numCores) * reference.dvfs.maxGhz;
    double capacity_factor = 0.0;
    for (std::size_t n = 0; n < spec.totalNodes(); ++n) {
        const sim::MachineConfig m = nodeMachine(spec, n);
        capacity_factor += static_cast<double>(m.numCores) *
            m.dvfs.maxGhz * m.serviceRateScale / ref_capacity;
    }
    return capacity_factor;
}

} // namespace

std::vector<double>
fleetMaxRps(const ScenarioSpec &spec)
{
    const auto profiles = profilesFor(spec.services);
    const double capacity_factor = fleetCapacityFactor(spec);
    std::vector<double> max_rps;
    for (std::size_t s = 0; s < spec.services.size(); ++s)
        max_rps.push_back(effectiveMaxRps(spec.services[s], profiles[s],
                                          capacity_factor));
    return max_rps;
}

FleetSetup
buildFleet(const ScenarioSpec &spec, const ManagerRegistry &registry,
           std::size_t jobs,
           std::vector<std::unique_ptr<sim::LoadGenerator>>
               loads_override)
{
    FleetSetup setup;
    setup.profiles = profilesFor(spec.services);
    const double capacity_factor = fleetCapacityFactor(spec);

    common::fatalIf(!loads_override.empty() &&
                        loads_override.size() != spec.services.size(),
                    "buildFleet: loads_override needs one generator "
                    "per service (got ", loads_override.size(),
                    " for ", spec.services.size(), " services)");
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    for (std::size_t s = 0; s < spec.services.size(); ++s) {
        setup.maxRps.push_back(effectiveMaxRps(
            spec.services[s], setup.profiles[s], capacity_factor));
        loads.push_back(loads_override.empty()
                            ? makeLoadFromSpec(spec.services[s],
                                               setup.maxRps[s],
                                               spec.steps)
                            : std::move(loads_override[s]));
    }

    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::routingPolicyByName(spec.policy);
    cfg.jobs = jobs;
    cfg.domains = spec.domains;
    setup.fleet = std::make_unique<cluster::ClusterManager>(
        cfg, setup.profiles, std::move(loads), spec.seed);

    const Schedule sched{spec.steps, spec.resolvedWindow(),
                         spec.resolvedHorizon()};
    const bool warm = !spec.checkpoint.empty();
    // By-value captures: the factory outlives this call — it is the
    // rebuild recipe the fleet keeps for crash recovery.
    const cluster::ClusterManager::ManagerFactory factory =
        [sched, paper = spec.paper, knobs = spec.knobs, warm,
         manager_name = spec.manager, registry_ptr = &registry](
            const sim::MachineConfig &machine,
            const std::vector<sim::ServiceProfile> &svcs,
            std::uint64_t seed) -> std::unique_ptr<core::TaskManager> {
        ManagerContext ctx;
        ctx.machine = machine;
        ctx.profiles = svcs;
        ctx.schedule = sched;
        ctx.full = paper;
        ctx.seed = seed;
        ctx.knobs = knobs;
        if (warm)
            ctx.knobs.exploitOnly = true; // deployed, trained policy
        return registry_ptr->make(manager_name, ctx);
    };

    // Provision every slot (standby included on autoscaled fleets —
    // the routing partition is fixed; slots park instead of
    // disappearing).
    for (std::size_t n = 0; n < spec.totalNodes(); ++n) {
        const auto machine = nodeMachine(spec, n);
        setup.fleet->addNode(machine, factory,
                             expandCheckpoint(spec.checkpoint,
                                              machine.numCores, n));
    }
    if (!spec.faults.empty())
        setup.fleet->setFaults(spec.faults);
    // Per-slot hourly rates from the class list (empty = $1/h each).
    std::vector<double> rates;
    if (!spec.fleetClasses.empty()) {
        for (std::size_t n = 0; n < spec.totalNodes(); ++n) {
            const autoscale::NodeClass *cls = autoscale::findNodeClass(
                spec.nodeClasses,
                spec.fleetClasses[n % spec.fleetClasses.size()]);
            rates.push_back(cls->dollarsPerHour);
        }
    }
    if (spec.autoscale) {
        // Rated at full provisioning: the utilisation denominator is
        // the same static-max capacity the bench compares against.
        setup.fleet->setAutoscaler(*spec.autoscale, setup.maxRps,
                                   std::move(rates), spec.nodes);
    } else if (!rates.empty()) {
        setup.fleet->setCostModel(std::move(rates));
    }
    return setup;
}

EngineResult
Engine::runCluster(const ScenarioSpec &spec,
                   const ManagerRegistry &registry) const
{
    const std::size_t window = spec.resolvedWindow();
    auto setup = buildFleet(spec, registry, options_.jobs);
    cluster::ClusterManager &fleet = *setup.fleet;

    EngineResult result;
    result.profileAtRunStart = profileNow();
    result.cluster = true;
    result.fleet = fleet.run(spec.steps, window);

    if (!options_.saveCheckpoint.empty()) {
        auto *twig = dynamic_cast<core::TwigManager *>(
            &fleet.node(0).manager());
        common::fatalIf(twig == nullptr,
                        "save-checkpoint needs a TwigManager on node 0");
        twig->saveCheckpoint(options_.saveCheckpoint);
    }
    return result;
}

// --- writeTrace ------------------------------------------------------

namespace {

common::Json
jsonArray(std::span<const double> values)
{
    common::Json arr = common::Json::array();
    for (const double v : values)
        arr.push(v);
    return arr;
}

/** The `interval` line's fields common to both topologies. */
common::Json
intervalLine(std::size_t step, double power_w,
             std::span<const double> rps, std::span<const double> p99_ms)
{
    common::Json line = common::Json::object();
    line.set("kind", "interval");
    line.set("step", step);
    line.set("power_w", power_w);
    line.set("rps", jsonArray(rps));
    line.set("p99_ms", jsonArray(p99_ms));
    return line;
}

} // namespace

TraceCounts
writeTrace(std::ostream &out, const ScenarioSpec &spec,
           const EngineResult &result)
{
    common::fatalIf(!result.cluster && result.single.trace.empty(),
                    "writeTrace: the single-topology result carries no "
                    "trace (set EngineOptions::recordTrace)");
    auto emit = [&out](const common::Json &line) {
        out << line.dump() << '\n';
    };

    common::Json header = common::Json::object();
    header.set("kind", "run");
    header.set("schema", 1);
    header.set("scenario", spec.name);
    header.set("topology", result.cluster ? "cluster" : "single");
    common::Json names = common::Json::array();
    for (const auto &s : spec.finalServices())
        names.push(s.service);
    header.set("services", std::move(names));
    emit(header);

    TraceCounts counts;
    if (!result.cluster) {
        const sim::DvfsLadder ladder;
        for (const auto &tr : result.single.trace) {
            common::Json line = intervalLine(tr.step, tr.socketPowerW,
                                             tr.offeredRps, tr.p99Ms);
            common::Json cores = common::Json::array();
            common::Json ghz = common::Json::array();
            for (std::size_t i = 0; i < tr.cores.size(); ++i) {
                cores.push(tr.cores[i]);
                ghz.push(ladder.freq(tr.dvfs[i]));
            }
            line.set("cores", std::move(cores));
            line.set("dvfs_ghz", std::move(ghz));
            emit(line);
            ++counts.intervals;
        }
        return counts;
    }

    for (const auto &fs : result.fleet.trace) {
        for (const auto &ev : fs.faultEvents) {
            common::Json line = common::Json::object();
            line.set("kind", "fault");
            line.set("step", ev.step);
            line.set("event", faults::faultEventKindName(ev.kind));
            line.set("node", ev.node);
            line.set("service", ev.service);
            line.set("value", ev.value);
            line.set("aux", ev.aux);
            line.set("note", ev.note);
            emit(line);
            ++counts.events;
        }
        for (const auto &ev : fs.scaleEvents) {
            common::Json line = common::Json::object();
            line.set("kind", "scale");
            line.set("step", ev.step);
            line.set("event", cluster::scaleEventKindName(ev.kind));
            line.set("node", ev.node);
            line.set("utilization", ev.utilization);
            line.set("tardiness", ev.tardiness);
            emit(line);
            ++counts.events;
        }
        emit(intervalLine(fs.step, fs.totalPowerW, fs.offeredRps,
                          fs.fleetP99Ms));
        ++counts.intervals;
    }
    return counts;
}

} // namespace twig::harness
