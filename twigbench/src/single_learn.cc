/**
 * @file
 * single_learn: the scenarios/fig13.json cell — one 18-core server,
 * Twig-C on masstree + xapian at 50% of the colocated max, fast preset,
 * learning every interval for the scenario's 2000 intervals.
 *
 * One pass is one harness::Engine run of the whole scenario, so its
 * simulated outputs repeat exactly per seed. Passes repeat until the
 * run's wall time is used; each pass gets a manager built in set-up.
 */

#include <cmath>

#include "common/hash.hh"
#include "harness/engine.hh"
#include "measure.hh"
#include "services/tailbench.hh"
#include "workloads.hh"

namespace twigbench {

namespace {

using twig::harness::Engine;
using twig::harness::EngineOptions;
using twig::harness::EngineResult;
using twig::harness::ManagerContext;
using twig::harness::ScenarioSpec;
using twig::harness::SimProfile;

/** Passes prepared in set-up (set-up is timed this many times). */
constexpr std::size_t kSetupRepetitions = 3;

ScenarioSpec
loadSpec(const Options &opt)
{
    ScenarioSpec spec =
        ScenarioSpec::fromFile(opt.repo + "/scenarios/fig13.json");
    spec.seed = deriveSeed(opt.seed, 1);
    spec.managerSeed = deriveSeed(opt.seed, 2);
    return spec;
}

/** The manager context harness::Engine builds for a single-topology
 * spec (engine.cc runSingle). */
ManagerContext
contextFor(const ScenarioSpec &spec)
{
    ManagerContext ctx;
    ctx.machine.numCores = spec.machineCores;
    for (const auto &s : spec.services)
        ctx.profiles.push_back(twig::services::byName(s.service));
    ctx.schedule = {spec.steps, spec.resolvedWindow(),
                    spec.resolvedHorizon()};
    ctx.full = spec.paper;
    ctx.seed = *spec.managerSeed;
    ctx.knobs = spec.knobs;
    return ctx;
}

/** FNV-1a over the whole per-step trace of a pass. */
std::uint64_t
traceChecksum(const EngineResult &r)
{
    std::uint64_t h = twig::common::kFnvOffsetBasis;
    for (const auto &t : r.single.trace) {
        h = twig::common::fnv1a(t.cores.data(),
                                t.cores.size() * sizeof(std::size_t), h);
        h = twig::common::fnv1a(t.dvfs.data(),
                                t.dvfs.size() * sizeof(std::size_t), h);
        h = twig::common::fnv1a(t.p99Ms.data(),
                                t.p99Ms.size() * sizeof(double), h);
        h = twig::common::fnv1a(&t.socketPowerW, sizeof(double), h);
    }
    return h;
}

bool
traceSane(const EngineResult &r)
{
    for (const auto &t : r.single.trace) {
        if (!std::isfinite(t.socketPowerW) || t.socketPowerW < 0.0)
            return false;
        for (double p99 : t.p99Ms) {
            if (!std::isfinite(p99) || p99 < 0.0)
                return false;
        }
    }
    return true;
}

struct Pass
{
    EngineResult result;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t checksum = 0;
};

Pass
runPass(const ScenarioSpec &spec, twig::core::TaskManager &manager)
{
    EngineOptions eo;
    eo.managerOverride = &manager;
    eo.recordTrace = true;
    Pass p;
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    p.result = Engine(eo).run(spec);
    p.wallS = secondsBetween(t0, Clock::now());
    p.cpuS = processCpuSeconds() - cpu0;
    p.checksum = traceChecksum(p.result);
    return p;
}

} // namespace

void
runSingleLearn(const Options &opt, Report &report)
{
    // Set-up: scenario + manager (Eq. 2 profiling fits, BDQ init).
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<TimedTwig>> managers;
    ScenarioSpec spec;
    for (std::size_t r = 0; r < kSetupRepetitions; ++r) {
        const auto t0 = Clock::now();
        spec = loadSpec(opt);
        managers.push_back(makeTimedTwig(contextFor(spec), opt.trace));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    reportSetup(report, setup_s);
    report.info("steps_per_pass", static_cast<std::uint64_t>(spec.steps));

    if (opt.trace) {
        // Untraced pass (bare manager), then the traced pass (split
        // decide timing + simulator phase counters) on identical inputs.
        const Pass plain = runPass(spec, managers[0]->inner());
        TscCalibration tsc;
        SimProfile::reset();
        SimProfile::enable();
        const SimProfile before = SimProfile::snapshot();
        const Pass traced = runPass(spec, *managers[1]);
        const SimProfile delta = SimProfile::snapshot().since(before);
        SimProfile::disable();
        tsc.finish();
        report.check("trace_checksum_matches_untraced",
                     traced.checksum == plain.checksum,
                     hex(traced.checksum) + " vs " + hex(plain.checksum));
        report.check("telemetry_sane",
                     traceSane(traced.result) &&
                         managers[1]->telemetrySane(),
                     "p99/power finite and >= 0, energy non-decreasing");
        report.attempted(2 * spec.steps);

        const TimedTwig &m = *managers[1];
        reportIntervals(report, m.intervalSeconds(),
                        static_cast<double>(spec.steps) / traced.cpuS);
        reportSimLayer(report, delta, tsc, static_cast<double>(spec.steps),
                       static_cast<double>(m.arrivals()), traced.cpuS);
        reportDecideLayer(report, {managers[1].get()}, traced.cpuS);
        report.metric("common.pool_busy_pct",
                      100.0 * traced.cpuS / traced.wallS, "%");
        reportTraceOverhead(
            report, static_cast<double>(spec.steps) / plain.cpuS,
            static_cast<double>(spec.steps) / traced.cpuS);
        return;
    }

    // Timed passes until the wall time is used (at least one).
    std::vector<double> intervals;
    std::uint64_t steps = 0;
    double wall = 0.0;
    double cpu = 0.0;
    std::vector<Pass> passes;
    // Stop where the next pass would overshoot more than stopping
    // now undershoots.
    for (std::size_t p = 0;
         p == 0 || wall * (1.0 + 0.5 / static_cast<double>(p)) < opt.seconds;
         ++p) {
        if (p >= managers.size()) {
            managers.push_back(
                makeTimedTwig(contextFor(spec), /*split=*/false));
        }
        TimedTwig &m = *managers[p];
        passes.push_back(runPass(spec, m));
        cpu += passes.back().cpuS;
        wall += passes.back().wallS;
        steps += spec.steps;
        intervals.insert(intervals.end(), m.intervalSeconds().begin(),
                         m.intervalSeconds().end());
    }
    report.info("passes", static_cast<std::uint64_t>(passes.size()));
    report.info("timed_s", wall);
    report.attempted(steps);

    bool sane = true;
    bool same = true;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        sane = sane && traceSane(passes[p].result) &&
            managers[p]->telemetrySane();
        same = same && passes[p].checksum == passes[0].checksum;
    }
    report.check("telemetry_sane", sane,
                 "p99/power finite and >= 0, energy non-decreasing");
    report.check("passes_replay_identically", same,
                 hex(passes[0].checksum) + " over " +
                     std::to_string(passes.size()) + " passes");
    if (!sane)
        report.failed(steps);

    reportIntervals(report, intervals, static_cast<double>(steps) / cpu);
    const EngineResult &r = passes[0].result;
    report.metric("qos_pct", r.avgQosGuaranteePct(), "%");
    const double interval_s = twig::sim::MachineConfig{}.intervalSeconds;
    double energy_j = 0.0;
    for (const auto &t : r.single.trace)
        energy_j += t.socketPowerW * interval_s;
    report.metric("energy_kj", energy_j * 1e-3, "kJ");
    const TimedTwig &m0 = *managers[0];
    const double offered =
        static_cast<double>(m0.completed() + m0.dropped());
    report.metric("drop_pct",
                  offered > 0
                      ? 100.0 * static_cast<double>(m0.dropped()) / offered
                      : 0.0,
                  "%");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.info("checksum", hex(passes[0].checksum));
}

} // namespace twigbench
