/**
 * @file
 * twig_loadgen — multi-connection load generator for twig_serve.
 *
 * Opens N TCP connections to a running daemon and drives an open-loop
 * arrival process over them (serve::runLoadClient): each connection
 * thread batches its share of --rps into Batch frames every
 * --batch-ms, never waiting for acks, and measures ack round-trip
 * latency into client-side histograms. Prints offered/acked
 * throughput, RTT p50/p99 and the daemon's own view from its Stats
 * frames.
 *
 * Examples:
 *   twig_loadgen --port 7411 --rps 1000000 --connections 8 \
 *       --duration-s 5
 *   twig_loadgen --host 10.0.0.2 --port 7411 --rps 50000
 */

#include <cstdio>
#include <string>

#include "common/flags.hh"
#include "serve/load_client.hh"

using namespace twig;

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::size_t port = 0;
    std::size_t connections = 8;
    double rps = 100000.0;
    double duration_s = 1.0;
    double batch_ms = 1.0;

    const common::FlagRange positive{.min = 0.0, .openMin = true};
    common::FlagParser parser;
    parser.addString("--host", &host,
                     "daemon address (default 127.0.0.1)");
    parser.addCount("--port", &port, "daemon TCP port (required)", 1,
                    65535);
    parser.addCount("--connections", &connections,
                    "concurrent connections (default 8)", 1);
    parser.addDouble("--rps", &rps,
                     "total offered request rate (default 100000)",
                     positive);
    parser.addDouble("--duration-s", &duration_s,
                     "run length (default 1)", positive);
    parser.addDouble("--batch-ms", &batch_ms,
                     "open-loop batch tick (default 1)", positive);

    const auto parsed = parser.parse(argc, argv);
    if (parsed.helpRequested) {
        std::printf("usage: %s --port PORT [options]\n%s", argv[0],
                    parser.usageLines().c_str());
        return 0;
    }
    if (!parsed.error.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0],
                     parsed.error.c_str());
        return 2;
    }
    if (port == 0) {
        std::fprintf(stderr, "%s: need --port (see --help)\n", argv[0]);
        return 2;
    }

    serve::LoadClientOptions opt;
    opt.host = host;
    opt.port = static_cast<std::uint16_t>(port);
    opt.connections = connections;
    opt.rps = rps;
    opt.durationS = duration_s;
    opt.batchMs = batch_ms;

    const auto report = serve::runLoadClient(opt);
    for (const auto &err : report.errors)
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());

    std::printf("twig_loadgen: %zu connections to %s:%zu for %.2f s\n",
                connections, host.c_str(), port, report.wallSeconds);
    std::printf("  offered %llu requests (%.0f req/s) in %llu batch "
                "frames\n",
                static_cast<unsigned long long>(report.sent),
                report.offeredRps,
                static_cast<unsigned long long>(report.batchFrames));
    std::printf("  acked   %llu requests (%.0f req/s) in %llu ack "
                "frames\n",
                static_cast<unsigned long long>(report.acked),
                report.ackedRps,
                static_cast<unsigned long long>(report.ackFrames));
    std::printf("  ack rtt p50 %.0f us, p99 %.0f us\n", report.rttP50Us,
                report.rttP99Us);
    if (report.haveServerStats) {
        const auto &s = report.serverStats;
        std::printf("  server @ step %llu: power %.1f W\n",
                    static_cast<unsigned long long>(s.step), s.powerW);
        for (std::size_t i = 0; i < s.p99Ms.size(); ++i) {
            std::printf("    service %zu: offered %8.0f rps  "
                        "p99 %7.2f ms\n",
                        i, s.offeredRps[i], s.p99Ms[i]);
        }
    }
    return report.failedConnections == 0 ? 0 : 1;
}
