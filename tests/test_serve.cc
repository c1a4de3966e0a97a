/** @file Integration tests for the live serving front-end
 * (src/serve/): an in-process daemon driven by the load client over
 * TCP loopback, graceful shutdown with a shutdown checkpoint that
 * warm-starts a fresh fleet, rate accounting when the control loop
 * overruns its pacing, and protocol-error handling at the socket
 * edge. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "core/twig_manager.hh"
#include "harness/engine.hh"
#include "harness/registry.hh"
#include "harness/scenario.hh"
#include "serve/daemon.hh"
#include "serve/load_client.hh"
#include "serve/protocol.hh"
#include "sim/machine.hh"

using namespace twig;

namespace {

/** A small cluster scenario (2 Twig nodes, one service) so fleet
 * construction stays cheap in unit tests. */
harness::ScenarioSpec
smallSpec()
{
    harness::ScenarioSpec spec;
    spec.name = "serve-test";
    spec.topology = "cluster";
    harness::ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.pattern = "fixed";
    svc.fraction = 0.3;
    spec.services.push_back(svc);
    spec.manager = "twig";
    spec.steps = 120;
    spec.seed = 7;
    spec.nodes = 2;
    spec.policy = "p2c-latency";
    return spec;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Node @p n's manager of a fresh fleet built from @p spec, re-saved
 * as a checkpoint: the bytes that fleet would warm-start from. */
std::string
freshNodeCheckpoint(const harness::ScenarioSpec &spec, std::size_t n,
                    const std::string &path)
{
    const auto setup = harness::buildFleet(
        spec, harness::ManagerRegistry::builtin(), 1);
    dynamic_cast<core::TwigManager &>(setup.fleet->node(n).manager())
        .saveCheckpoint(path);
    return readFileBytes(path);
}

/** Node @p n's file of a "{node}" checkpoint path set. */
std::string
nodeCheckpointPath(const std::string &path, std::size_t n)
{
    return harness::expandCheckpoint(path, sim::MachineConfig{}.numCores,
                                     n);
}

} // namespace

TEST(Serve, LoopbackRoundTripAndGracefulShutdown)
{
    const std::string ckpt_path =
        ::testing::TempDir() + "serve_daemon_test_node{node}.ckpt";
    serve::DaemonOptions dopt;
    dopt.port = 0; // ephemeral
    dopt.intervalMs = 5.0;
    dopt.finalCheckpoint = ckpt_path;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    ASSERT_GT(daemon.port(), 0);
    ASSERT_EQ(daemon.numServices(), 1u);
    ASSERT_EQ(daemon.maxRps().size(), 1u);
    EXPECT_GT(daemon.maxRps()[0], 0.0);

    serve::LoadClientOptions copt;
    copt.port = daemon.port();
    copt.connections = 2;
    copt.rps = 20000.0;
    copt.durationS = 0.4;
    copt.statsIntervalS = 0.05;
    const auto report = serve::runLoadClient(copt);
    for (const auto &err : report.errors)
        ADD_FAILURE() << err;
    ASSERT_EQ(report.failedConnections, 0u);
    EXPECT_EQ(report.numServices, 1u);
    EXPECT_GT(report.sent, 0u);
    // Every offered request must be acknowledged (open loop, but the
    // Bye handshake drains the ack stream before closing).
    EXPECT_EQ(report.acked, report.sent);
    EXPECT_EQ(report.ackFrames, report.batchFrames);
    // Connection 0 polled the daemon's stats.
    EXPECT_TRUE(report.haveServerStats);
    EXPECT_EQ(report.serverStats.p99Ms.size(), 1u);

    daemon.requestShutdown();
    const auto summary = daemon.join();
    EXPECT_TRUE(daemon.finished());
    // Everything the client offered arrived in the arrival windows.
    EXPECT_EQ(summary.acceptedRequests, report.sent);
    EXPECT_GT(summary.intervals, 0u);
    EXPECT_EQ(summary.listener.accepted, 2u);
    EXPECT_EQ(summary.listener.protocolErrors, 0u);
    ASSERT_EQ(summary.metrics.services.size(), 1u);
    EXPECT_EQ(summary.metrics.services[0].name, "masstree");
    EXPECT_GT(summary.metrics.meanPowerW, 0.0);
    ASSERT_EQ(summary.observedRps.size(), 1u);
    EXPECT_GT(summary.observedRps[0], 0.0);

    // Every node's shutdown checkpoint loads into the same node of a
    // fresh fleet warm-started from the set, which re-saves it byte
    // for byte.
    auto spec = smallSpec();
    spec.checkpoint = ckpt_path;
    const std::string resaved_path =
        ::testing::TempDir() + "serve_daemon_test.resaved";
    std::size_t total_bytes = 0;
    for (std::size_t n = 0; n < spec.nodes; ++n) {
        const std::string path = nodeCheckpointPath(ckpt_path, n);
        const std::string saved = readFileBytes(path);
        ASSERT_FALSE(saved.empty()) << path;
        total_bytes += saved.size();
        EXPECT_TRUE(freshNodeCheckpoint(spec, n, resaved_path) == saved)
            << "node " << n << ": re-saved checkpoint differs from the "
            << "daemon's";
    }
    EXPECT_EQ(summary.checkpointBytes, total_bytes);
    for (std::size_t n = 0; n < spec.nodes; ++n)
        std::remove(nodeCheckpointPath(ckpt_path, n).c_str());
    std::remove(resaved_path.c_str());
}

TEST(Serve, MultiNodeFinalCheckpointNeedsANodePlaceholder)
{
    serve::DaemonOptions dopt;
    dopt.finalCheckpoint = ::testing::TempDir() + "fleet.ckpt";
    EXPECT_THROW(serve::Daemon(smallSpec(), dopt), common::FatalError);

    // One node writes one file, so the plain path stands.
    auto spec = smallSpec();
    spec.nodes = 1;
    EXPECT_NO_THROW(serve::Daemon(spec, dopt));
}

TEST(Serve, ExpandCheckpointFillsCoresAndNode)
{
    EXPECT_EQ(harness::expandCheckpoint("d/{cores}c-n{node}.ckpt", 18, 3),
              "d/18c-n3.ckpt");
    EXPECT_EQ(harness::expandCheckpoint("{node}{node}", 6, 12), "1212");
    EXPECT_EQ(harness::expandCheckpoint("donor.ckpt", 6, 1),
              "donor.ckpt");
}

TEST(Serve, FinalCheckpointWarmStartsAFleetAndRejectsAFlippedByte)
{
    const std::string ckpt_set =
        ::testing::TempDir() + "serve_donor_test_node{node}.ckpt";
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    dopt.durationS = 0.1;
    dopt.finalCheckpoint = ckpt_set;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    const auto summary = daemon.join();
    const std::string ckpt_path = nodeCheckpointPath(ckpt_set, 0);
    const std::string saved = readFileBytes(ckpt_path);
    ASSERT_EQ(summary.checkpointBytes, 2 * saved.size());
    std::remove(nodeCheckpointPath(ckpt_set, 1).c_str());

    // The served fleet's node 0 is a donor, exactly as for
    // `twig --checkpoint`: every node of the new fleet starts from it.
    auto spec = smallSpec();
    spec.checkpoint = ckpt_path;
    const std::string scratch = ckpt_path + ".node";
    EXPECT_TRUE(freshNodeCheckpoint(spec, 0, scratch) == saved);
    EXPECT_TRUE(freshNodeCheckpoint(spec, 1, scratch) == saved);

    // One flipped parameter byte is refused, and the refusal names
    // the checksum.
    std::string flipped = saved;
    flipped[flipped.size() / 2] ^= 0x01;
    const std::string bad_path = ckpt_path + ".bad";
    {
        std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
        out.write(flipped.data(),
                  static_cast<std::streamsize>(flipped.size()));
    }
    spec.checkpoint = bad_path;
    try {
        freshNodeCheckpoint(spec, 0, scratch);
        ADD_FAILURE() << "a flipped checkpoint warm-started a fleet";
    } catch (const common::FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("checksum"),
                  std::string::npos)
            << err.what();
    }
    std::remove(scratch.c_str());
    std::remove(bad_path.c_str());
    std::remove(ckpt_path.c_str());
}

TEST(Serve, ObservedRateHoldsWhenTheControlLoopOverruns)
{
    // A 0.25 ms pacing that a learning 2-node fleet's step cannot
    // keep: late ticks re-anchor the schedule, so each arrival window
    // spans more wall time than the nominal interval. Dividing by the
    // nominal interval overstates the load by that stretch factor;
    // dividing by the measured span matches what the client offered.
    const double interval_ms = 0.25;
    serve::DaemonOptions dopt;
    dopt.intervalMs = interval_ms;
    dopt.windowIntervals = 1000; // the whole run, unless it is slow
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();

    // The daemon stops while the client is still sending (its close
    // ends the client's run early), so the summary window holds no
    // idle tail after the client's last batch.
    serve::LoadClientOptions copt;
    copt.port = daemon.port();
    copt.connections = 1;
    copt.rps = 20000.0;
    copt.durationS = 5.0;
    copt.statsIntervalS = 0.0;
    serve::LoadClientReport report;
    std::thread client([&] { report = serve::runLoadClient(copt); });
    std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    daemon.requestShutdown();
    const auto summary = daemon.join();
    client.join();
    ASSERT_GT(report.sent, 0u);

    EXPECT_GT(summary.overruns, 0u);
    // The stretch is large (about 7x in an optimised build, more under
    // sanitizers), so nominal-interval accounting could not pass the
    // tolerance below.
    const double stretch = summary.wallSeconds * 1e3 /
        (interval_ms * static_cast<double>(summary.intervals));
    EXPECT_GT(stretch, 2.0);
    // Observed rate within 10 % of the client's realised rate. Both
    // span nearly the same wall time; the gap is the client's connect
    // time and arrivals a stalled event thread moves across the
    // window's edges on a busy host.
    ASSERT_EQ(summary.observedRps.size(), 1u);
    EXPECT_NEAR(summary.observedRps[0], report.offeredRps,
                0.1 * report.offeredRps)
        << "stretch " << stretch << ", " << summary.overruns << " of "
        << summary.intervals << " intervals overran";
}

TEST(Serve, DurationHoldsWhenTheControlLoopOverruns)
{
    // The learning fleet's step takes several times the 0.25 ms
    // pacing, so the loop overruns: it steps far fewer intervals than
    // 0.2 s / 0.25 ms = 800, and must still stop at 0.2 s of wall
    // time, after at most one step past the deadline.
    serve::DaemonOptions dopt;
    dopt.intervalMs = 0.25;
    dopt.durationS = 0.2;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    const auto summary = daemon.join();

    ASSERT_GT(summary.intervals, 0u);
    EXPECT_GT(summary.overruns, 0u);
    EXPECT_LT(summary.intervals, 800u);
    // One step is the pacing interval plus the fleet's step time; the
    // mean interval over the run measures both. The bound allows the
    // final step up to 8 mean steps (a slow step on a busy host); the
    // count-based stop ran about 7x past the duration here.
    const double mean_step_s =
        summary.wallSeconds / static_cast<double>(summary.intervals);
    EXPECT_GE(summary.wallSeconds, dopt.durationS);
    EXPECT_LE(summary.wallSeconds, dopt.durationS + 8.0 * mean_step_s)
        << summary.intervals << " intervals, " << summary.overruns
        << " overran";
}

TEST(Serve, LoadClientOffersEachServiceItsOwnRate)
{
    auto spec = smallSpec();
    harness::ServiceLoadSpec second = spec.services[0];
    second.service = "img-dnn";
    spec.services.push_back(second);
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    serve::Daemon daemon(spec, dopt);
    daemon.start();

    serve::LoadClientOptions copt;
    copt.port = daemon.port();
    copt.connections = 2;
    copt.durationS = 0.3;
    copt.statsIntervalS = 0.0;
    // A rate per service the daemon does not have fails the run.
    copt.serviceRps = {1000.0, 1000.0, 1000.0};
    const auto refused = serve::runLoadClient(copt);
    EXPECT_EQ(refused.failedConnections, 2u);
    ASSERT_FALSE(refused.errors.empty());
    EXPECT_NE(refused.errors[0].find("rates for 3"), std::string::npos)
        << refused.errors[0];

    copt.serviceRps = {4000.0, 1000.0};
    const auto report = serve::runLoadClient(copt);
    for (const auto &err : report.errors)
        ADD_FAILURE() << err;
    daemon.requestShutdown();
    const auto summary = daemon.join();
    EXPECT_EQ(summary.acceptedRequests, report.sent);
    ASSERT_EQ(summary.observedRps.size(), 2u);
    // 4:1 offered; an even split would observe 1:1.
    EXPECT_GT(summary.observedRps[0], 2.0 * summary.observedRps[1]);
    EXPECT_GT(summary.observedRps[1], 0.0);
}

TEST(Serve, GarbageBytesDisconnectWithoutHarm)
{
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char garbage[] = "not a twig frame at all................";
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
              static_cast<ssize_t>(sizeof(garbage)));
    // The daemon must drop the connection: recv sees EOF (or a
    // reset), never a hang.
    char buf[64];
    ssize_t n;
    do {
        n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n > 0);
    EXPECT_LE(n, 0);
    ::close(fd);

    daemon.requestShutdown();
    const auto summary = daemon.join();
    EXPECT_EQ(summary.listener.protocolErrors, 1u);
    EXPECT_EQ(summary.acceptedRequests, 0u);
}

TEST(Serve, DurationTriggersShutdownByItself)
{
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    dopt.durationS = 0.1;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    const auto summary = daemon.join(); // returns without an explicit
                                        // requestShutdown
    EXPECT_TRUE(daemon.finished());
    EXPECT_GE(summary.intervals, 10u);
    EXPECT_EQ(summary.checkpointBytes, 0u); // no path configured
}

TEST(Serve, RejectsSingleTopologyScenarios)
{
    auto spec = smallSpec();
    spec.topology = "single";
    serve::DaemonOptions dopt;
    EXPECT_THROW(serve::Daemon(spec, dopt), common::FatalError);
}

TEST(Serve, LiveLoadClampsToCapacity)
{
    serve::LiveLoad load(100.0);
    EXPECT_DOUBLE_EQ(load.rps(0), 0.0);
    EXPECT_DOUBLE_EQ(load.set(40.0), 40.0);
    EXPECT_DOUBLE_EQ(load.rps(123), 40.0);
    EXPECT_DOUBLE_EQ(load.set(250.0), 100.0);
    EXPECT_DOUBLE_EQ(load.rps(0), 100.0);
    EXPECT_DOUBLE_EQ(load.observedRps(), 250.0);
    serve::LiveLoad unclamped(0.0);
    EXPECT_DOUBLE_EQ(unclamped.set(1e9), 1e9);
}
