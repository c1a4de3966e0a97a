/**
 * @file
 * Scenario engine: executes a ScenarioSpec on either topology —
 * a single sim::Server driven through ExperimentRunner, or an N-node
 * cluster::ClusterManager fleet — building the manager through the
 * ManagerRegistry; writeTrace() renders the run's recorded per-step
 * trace as one JSON-lines stream. Every tool and comparison bench
 * funnels through here, so a scenario file, a CLI invocation and a
 * bench cell are the same run.
 */

#ifndef TWIG_HARNESS_ENGINE_HH
#define TWIG_HARNESS_ENGINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/sim_profile.hh"

namespace twig::harness {

/** Engine execution options (runtime concerns that are not part of
 * the experiment's identity, so they live outside the spec). */
struct EngineOptions
{
    /** Node-stepping threads on the cluster topology (bit-identical
     * at any value). */
    std::size_t jobs = 1;
    /** Keep the single-topology per-step trace in the result (the
     * fleet trace is always kept). */
    bool recordTrace = false;
    /** Run this manager instead of building one from the spec
     * (single topology only; for pre-built or ablated managers). */
    core::TaskManager *managerOverride = nullptr;
    /** Cluster: write node 0's trained BDQ checkpoint here after the
     * run (the manager must be a TwigManager). */
    std::string saveCheckpoint;
    /** Manager registry (default: ManagerRegistry::builtin()). */
    const ManagerRegistry *registry = nullptr;
};

/** A fleet built from a cluster-topology spec, plus the derived
 * pieces a live driver needs (see buildFleet). */
struct FleetSetup
{
    std::vector<sim::ServiceProfile> profiles;
    /** Effective fleet-wide peak RPS per service (absolute max_rps
     * override, or profile max x maxScale x fleet capacity). */
    std::vector<double> maxRps;
    std::unique_ptr<cluster::ClusterManager> fleet;
};

/** Effective fleet-wide peak RPS per service of a cluster-topology
 * spec (the same capacity scaling buildFleet applies) — what a live
 * front-end clamps observed arrival rates to. */
std::vector<double> fleetMaxRps(const ScenarioSpec &spec);

/** @p path with "{cores}" expanded to @p cores (per-machine-shape
 * donors) and "{node}" to the node index @p node (one file per node). */
std::string expandCheckpoint(const std::string &path, std::size_t cores,
                             std::size_t node);

/**
 * Build the fleet a cluster-topology spec describes: nodes, managers
 * (warm-started from the spec's checkpoint when set), router policy
 * and fault schedule — everything except running it. When
 * @p loads_override is non-empty it supplies the fleet load
 * generators (one per service, same order) instead of the spec's
 * declarative patterns; this is how twig_serve plugs live socket
 * arrivals in as just another load source (serve::LiveLoad) while the
 * batch path stays byte-identical. The spec must already validate
 * against @p registry, and @p registry must outlive the fleet (node
 * rebuilds after faults go back through it).
 */
FleetSetup
buildFleet(const ScenarioSpec &spec, const ManagerRegistry &registry,
           std::size_t jobs,
           std::vector<std::unique_ptr<sim::LoadGenerator>>
               loads_override = {});

/** Result of one scenario run. */
struct EngineResult
{
    bool cluster = false;
    /** TaskManager::name() of the manager that ran (single only). */
    std::string managerName;
    /** Single topology: final-segment metrics (+ trace when
     * EngineOptions::recordTrace). */
    RunResult single;
    /** Cluster topology: fleet metrics + always-on fleet trace. */
    cluster::FleetRunResult fleet;
    /** With SimProfile enabled, its counters once the managers were
     * built (with their Eq. 2 profiling campaigns), just before the
     * first control interval: a snapshot after the run, less this, is
     * the run alone. All zero while profiling is off. */
    SimProfile profileAtRunStart;

    /** Topology-independent view of the headline numbers. */
    double meanPowerW() const;
    double energyJoules() const;
    std::size_t windowSteps() const;
    double avgQosGuaranteePct() const;
};

/** Executes ScenarioSpecs. */
class Engine
{
  public:
    explicit Engine(EngineOptions options = {})
        : options_(std::move(options))
    {
    }

    /** Run @p spec (fatal on a spec that fails validate()). */
    EngineResult run(const ScenarioSpec &spec) const;

  private:
    EngineResult runSingle(const ScenarioSpec &spec,
                           const ManagerRegistry &registry) const;
    EngineResult runCluster(const ScenarioSpec &spec,
                            const ManagerRegistry &registry) const;

    EngineOptions options_;
};

/** Record counts of one writeTrace() call. */
struct TraceCounts
{
    /** `interval` lines (one per recorded step). */
    std::size_t intervals = 0;
    /** `fault` + `scale` lines. */
    std::size_t events = 0;
};

/**
 * Write @p result's recorded trace to @p out as JSON lines (schema 1),
 * one common::Json object per line:
 *  - a `run` header: scenario, topology, final-segment service names;
 *  - per step, first one `fault` line per fault event (step, event,
 *    node, service, value, aux, note) and one `scale` line per scale
 *    event (step, event, node, utilization, tardiness), then one
 *    `interval` line: step, power_w, rps[], p99_ms[], plus cores[] and
 *    dvfs_ghz[] on the single topology.
 * A single-topology result must carry its trace
 * (EngineOptions::recordTrace). The caller opens, flushes and checks
 * @p out.
 */
TraceCounts writeTrace(std::ostream &out, const ScenarioSpec &spec,
                       const EngineResult &result);

} // namespace twig::harness

#endif // TWIG_HARNESS_ENGINE_HH
