#include <cmath>
#include <cstdio>

#include "common/hash.hh"
#include "measure.hh"
#include "workloads.hh"

namespace twigbench {

namespace simprof = twig::common::simprof;

void
reportSetup(Report &report, const std::vector<double> &seconds)
{
    report.metric("setup_s", median(seconds), "s");
    twig::common::Json reps = twig::common::Json::array();
    for (double s : seconds)
        reps.push(s);
    report.info("setup_repetitions_s", std::move(reps));
}

void
reportIntervals(Report &report, std::vector<double> interval_s,
                double intervals_per_s)
{
    const std::size_t n = interval_s.size();
    report.check("interval_p95_supported", percentileSupported(95.0, n),
                 std::to_string(n) + " intervals, " +
                     std::to_string(samplesNeededFor(95.0)) + " needed");
    report.info("interval_samples", static_cast<std::uint64_t>(n));
    report.metric("intervals_per_s", intervals_per_s, "1/s");
    report.metric("interval_ms_p50", median(interval_s) * 1e3, "ms");
    report.metric("interval_ms_p95", percentile(interval_s, 95.0) * 1e3,
                  "ms");
}

void
reportSimLayer(Report &report, const twig::harness::SimProfile &delta,
               const TscCalibration &tsc, double node_intervals,
               double arrivals, double cpu_s)
{
    const double sim_ns = tsc.ns(delta.totalCycles());
    report.metric("sim.interval_us",
                  node_intervals > 0 ? sim_ns * 1e-3 / node_intervals : 0.0,
                  "us");
    report.metric("sim.requests_per_interval",
                  node_intervals > 0 ? arrivals / node_intervals : 0.0,
                  "count");
    report.metric("sim.ns_per_request",
                  arrivals > 0 ? sim_ns / arrivals : 0.0, "ns");
    report.metric("sim.arrivals_pct", delta.sharePct(simprof::Phase::Arrivals),
                  "%");
    report.metric("sim.dispatch_pct", delta.sharePct(simprof::Phase::Dispatch),
                  "%");
    report.metric("sim.draws_pct", delta.sharePct(simprof::Phase::Draws), "%");
    report.metric("sim.quantile_pct", delta.sharePct(simprof::Phase::Quantile),
                  "%");
    report.metric("sim.share_pct",
                  cpu_s > 0 ? 100.0 * sim_ns * 1e-9 / cpu_s : 0.0, "%");
}

void
reportDecideLayer(Report &report, const std::vector<TimedTwig *> &managers,
                  double host_interval_s)
{
    double observe = 0.0, select = 0.0, apply = 0.0;
    std::uint64_t decides = 0;
    for (const TimedTwig *m : managers) {
        observe += m->observeSeconds();
        select += m->selectSeconds();
        apply += m->applySeconds();
        decides += m->decides();
    }
    const double per = decides > 0 ? 1e6 / static_cast<double>(decides) : 0.0;
    report.metric("rl.observe_us", observe * per, "us");
    report.metric("nn.select_us", select * per, "us");
    report.metric("core.apply_us", apply * per, "us");
    report.metric("rl.decide_share_pct",
                  host_interval_s > 0
                      ? 100.0 * (observe + select + apply) / host_interval_s
                      : 0.0,
                  "%");
}

void
reportClusterLayer(Report &report,
                   const twig::cluster::FleetPhaseProfile &profile,
                   const TscCalibration &tsc, double wall_s,
                   double cohort_nodes_pct, double step_ms)
{
    // Shares of measured step wall time. In-node decides (nodes outside
    // a cohort) count in both node_step and forward, as the fleet's own
    // profile records them.
    auto share = [&](std::uint64_t cycles) {
        return wall_s > 0 ? 100.0 * tsc.ns(cycles) * 1e-9 / wall_s : 0.0;
    };
    report.metric("cluster.step_ms", step_ms, "ms");
    report.metric("cluster.route_pct", share(profile.routeCycles), "%");
    report.metric("cluster.node_step_pct", share(profile.stepCycles), "%");
    report.metric("cluster.gather_pct", share(profile.gatherCycles), "%");
    report.metric("cluster.forward_pct", share(profile.forwardCycles), "%");
    report.metric("cluster.scatter_pct", share(profile.scatterCycles), "%");
    report.metric("cluster.merge_pct", share(profile.mergeCycles), "%");
    report.metric("cluster.cohort_nodes_pct", cohort_nodes_pct, "%");
}

void
reportTraceOverhead(Report &report, double untraced_per_s,
                    double traced_per_s)
{
    report.info("trace_untraced_intervals_per_s", untraced_per_s);
    report.info("trace_traced_intervals_per_s", traced_per_s);
    report.metric("trace.overhead_pct",
                  traced_per_s > 0
                      ? 100.0 * (untraced_per_s / traced_per_s - 1.0)
                      : 0.0,
                  "%");
}

std::uint64_t
fleetChecksum(const twig::cluster::FleetIntervalStats &fs, std::uint64_t h)
{
    auto mix = [&h](const std::vector<double> &v) {
        h = twig::common::fnv1a(v.data(), v.size() * sizeof(double), h);
    };
    mix(fs.fleetP99Ms);
    mix(fs.offeredRps);
    h = twig::common::fnv1a(&fs.totalPowerW, sizeof(double), h);
    return twig::common::fnv1a(&fs.shedRps, sizeof(double), h);
}

bool
fleetTelemetrySane(const twig::cluster::FleetIntervalStats &fs)
{
    bool ok = std::isfinite(fs.totalPowerW) && fs.totalPowerW >= 0.0;
    for (double p99 : fs.fleetP99Ms)
        ok = ok && std::isfinite(p99) && p99 >= 0.0;
    return ok;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace twigbench
