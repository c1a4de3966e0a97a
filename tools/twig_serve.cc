/**
 * @file
 * twig_serve — the live serving front-end daemon.
 *
 * Loads a cluster-topology scenario, builds the exact fleet the batch
 * engine would run (harness::buildFleet) with serve::LiveLoad as the
 * load source, binds a TCP listener and serves the framed protocol in
 * src/serve/protocol.hh: clients stream Batch frames carrying request
 * counts; every wall-clock control interval the daemon converts the
 * arrival window into per-service RPS and steps the fleet one control
 * interval, so the per-node BDQ policies run online against measured
 * load. SIGINT/SIGTERM (or --duration-s elapsing) shuts down
 * gracefully: in-flight connections drain, each node's BDQ is written
 * as a checkpoint file ("{node}" in the path expands to the node index;
 * `twig --checkpoint` warm-starts a fleet from the set, or from one
 * file as a donor), and the exit code is 0. Bad input (flags, scenario,
 * a multi-node --final-checkpoint without "{node}") exits 2 with a
 * message.
 *
 * Examples:
 *   twig_serve --scenario scenarios/serve.json
 *   twig_serve --scenario scenarios/serve.json --port 7411 \
 *       --interval-ms 50 --final-checkpoint 'serve-node{node}.ckpt'
 *   twig_serve --scenario scenarios/serve.json --duration-s 10 --jobs 4
 */

#include <csignal>
#include <cstdio>
#include <ctime>
#include <string>

#include "common/error.hh"
#include "common/flags.hh"
#include "harness/scenario.hh"
#include "serve/daemon.hh"

using namespace twig;

namespace {

struct Options
{
    std::string scenario;
    std::string listen = "127.0.0.1";
    std::size_t port = 0;
    double intervalMs = 50.0;
    double durationS = 0.0;
    std::size_t jobs = 1;
    std::size_t window = 0;
    std::string finalCheckpoint;
};

common::FlagParser
makeParser(Options &opt)
{
    common::FlagParser parser;
    parser.addString("--scenario", &opt.scenario,
                     "cluster scenario file (required)");
    parser.addString("--listen", &opt.listen,
                     "bind address (default 127.0.0.1)");
    parser.addCount("--port", &opt.port,
                    "TCP port; 0 binds an ephemeral one (default 0)", 0,
                    65535);
    parser.addDouble("--interval-ms", &opt.intervalMs,
                     "wall-clock control interval (default 50)");
    parser.addDouble("--duration-s", &opt.durationS,
                     "stop after this much wall time (default: run "
                     "until SIGINT/SIGTERM)",
                     {.min = 0.0});
    parser.addCount("--jobs", &opt.jobs,
                    "node-stepping threads (default 1)");
    parser.addCount("--window", &opt.window,
                    "summary window in intervals (default: the "
                    "scenario's)");
    parser.addString("--final-checkpoint", &opt.finalCheckpoint,
                     "write each node's BDQ checkpoint at shutdown; "
                     "{node} expands to the node index (needed on "
                     "fleets of more than one node)");
    return parser;
}

int
runDaemon(const Options &opt)
{
    serve::DaemonOptions dopt;
    dopt.listen = opt.listen;
    dopt.port = static_cast<std::uint16_t>(opt.port);
    dopt.intervalMs = opt.intervalMs;
    dopt.durationS = opt.durationS;
    dopt.jobs = opt.jobs;
    dopt.windowIntervals = opt.window;
    dopt.finalCheckpoint = opt.finalCheckpoint;

    // Block the shutdown signals before the daemon spawns threads so
    // every thread inherits the mask and delivery is ours to poll.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    serve::Daemon daemon(
        harness::ScenarioSpec::fromFile(opt.scenario), dopt);
    daemon.start();
    std::printf("twig_serve: listening on %s:%u (%zu services, "
                "interval %.1f ms)\n",
                opt.listen.c_str(), daemon.port(),
                daemon.numServices(), opt.intervalMs);
    std::fflush(stdout);

    // Wait for a signal or a duration-triggered internal shutdown.
    const timespec tick{0, 100 * 1000 * 1000};
    while (!daemon.finished()) {
        const int sig = sigtimedwait(&sigs, nullptr, &tick);
        if (sig == SIGINT || sig == SIGTERM) {
            std::printf("twig_serve: caught %s, draining\n",
                        sig == SIGINT ? "SIGINT" : "SIGTERM");
            std::fflush(stdout);
            daemon.requestShutdown();
            break;
        }
    }

    const auto summary = daemon.join();
    std::printf("twig_serve: %zu intervals over %.2f s wall "
                "(%zu overran the %.3g ms pacing)\n",
                summary.intervals, summary.wallSeconds,
                summary.overruns, opt.intervalMs);
    std::printf("  accepted %llu requests (%.0f req/s) over %llu "
                "frames from %llu connections\n",
                static_cast<unsigned long long>(
                    summary.acceptedRequests),
                summary.acceptedRps,
                static_cast<unsigned long long>(
                    summary.listener.framesIn),
                static_cast<unsigned long long>(
                    summary.listener.accepted));
    const auto &m = summary.metrics;
    for (std::size_t s = 0; s < m.services.size(); ++s) {
        std::printf("  %-11s observed %8.0f rps  p99 %7.2f ms  "
                    "QoS %5.1f%%\n",
                    m.services[s].name.c_str(),
                    s < summary.observedRps.size()
                        ? summary.observedRps[s]
                        : 0.0,
                    m.services[s].meanP99Ms,
                    m.services[s].qosGuaranteePct);
    }
    std::printf("  fleet mean power %.1f W over the last %zu "
                "intervals\n",
                m.meanPowerW, m.windowSteps);
    if (summary.checkpointBytes != 0) {
        std::printf("  final checkpoints: %s (%zu bytes, all nodes)\n",
                    opt.finalCheckpoint.c_str(),
                    summary.checkpointBytes);
    }
    std::printf("twig_serve: clean shutdown\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const auto parser = makeParser(opt);
    const auto parsed = parser.parse(argc, argv);
    if (parsed.helpRequested) {
        std::printf("usage: %s --scenario FILE [options]\n%s", argv[0],
                    parser.usageLines().c_str());
        return 0;
    }
    if (!parsed.error.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0],
                     parsed.error.c_str());
        return 2;
    }
    if (opt.scenario.empty()) {
        std::fprintf(stderr, "%s: need --scenario FILE (see --help)\n",
                     argv[0]);
        return 2;
    }
    try {
        return runDaemon(opt);
    } catch (const common::FatalError &e) {
        // Daemon messages name the tool already.
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}
