/**
 * @file
 * serve_live: an in-process serve::Daemon on scenarios/serve.json (4
 * Twig-C nodes learning online) paced at 25 ms, driven over loopback by
 * the benchmark's own open-loop generator.
 *
 * The generator is one poll-driven thread on 2 connections. Every frame
 * has a due time fixed before the run; the generator sends it as soon as
 * it can after that time, never re-anchors its schedule, stamps each ack
 * when it is read, and times it from the frame's due time. How late it
 * sent is recorded as its lag. It busy-polls (zero poll timeouts)
 * instead of sleeping: on virtual machines a sleeping thread's wake-up
 * can be late by milliseconds, which would be the generator's lag, not
 * the daemon's latency. Phases:
 *
 *   nominal  1 kHz ticks per connection and service, counts near half
 *            the fleet's capacity; connection 0 also polls Stats every
 *            250 us, which gives the control loop's pace and what the
 *            daemon observed, interval by interval;
 *   ladder   fixed frame rates (count 1) probing the serving edge.
 *
 * The traced run adds offline probes: FrameParser and encodeBatchAck on
 * a pre-encoded frame stream, and the same fleet stepped offline at the
 * nominal load, once bare and once with split decide timing and the
 * simulator phase counters.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "harness/engine.hh"
#include "measure.hh"
#include "serve/daemon.hh"
#include "serve/live_load.hh"
#include "serve/protocol.hh"
#include "services/tailbench.hh"
#include "workloads.hh"

namespace twigbench {

namespace {

namespace serve = twig::serve;
using twig::harness::ScenarioSpec;
using twig::harness::SimProfile;

constexpr double kIntervalMs = 25.0;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kServices = 2;
constexpr double kTickS = 1e-3;
/** Nominal-phase load, share of the fleet's capacity per service. */
constexpr double kNominalLoad = 0.5;
constexpr double kStatsPollS = 250e-6;
/** Ack latency limit of the ladder, us. */
constexpr double kSloUs = 1000.0;
/** The generator's own bound: p99 lag above it invalidates a phase. */
constexpr double kLagBoundUs = 500.0;
/** Nominal-phase head excluded from the Stats-derived metrics (the
 * first windows straddle the phase start). */
constexpr double kNominalSkipS = 0.5;
/** Nominal intervals QoS and energy are summed over (the last ones,
 * after the learners' exploration has annealed). */
constexpr std::size_t kQosIntervals = 300;
/** Ladder rates, frames/s over both connections. */
constexpr double kRungs[] = {20000.0, 80000.0, 320000.0};
constexpr std::size_t kNumRungs = std::size(kRungs);
constexpr std::size_t kSetupRepetitions = 3;
/** Offline probes. */
constexpr std::size_t kProbeFrames = 100000;
constexpr std::size_t kProbeRepetitions = 5;
constexpr std::size_t kProbeFleetSteps = 120;

double
since(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

// --- sockets ---------------------------------------------------------

void
writeAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        twig::common::fatalIf(n < 0 && errno != EINTR,
                              "twigbench: write: ", std::strerror(errno));
        if (n > 0)
            off += static_cast<std::size_t>(n);
    }
}

/** Blocking read until a frame of @p type arrives (handshake only). */
std::string
readFrame(int fd, serve::FrameParser &parser, serve::FrameType type)
{
    char buf[4096];
    for (;;) {
        serve::FrameView view;
        const auto st = parser.next(view);
        twig::common::fatalIf(st == serve::FrameParser::Status::Error,
                              "twigbench: handshake: ", parser.error());
        if (st == serve::FrameParser::Status::Frame) {
            twig::common::fatalIf(view.type != type,
                                  "twigbench: unexpected frame type ",
                                  static_cast<int>(view.type));
            return {view.body, view.size};
        }
        pollfd pfd{fd, POLLIN, 0};
        twig::common::fatalIf(::poll(&pfd, 1, 5000) <= 0,
                              "twigbench: handshake timed out");
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        twig::common::fatalIf(n <= 0, "twigbench: handshake read failed");
        parser.append(buf, static_cast<std::size_t>(n));
    }
}

/** Connect to the daemon and complete the Hello handshake. */
int
connectAndHello(std::uint16_t port, serve::FrameParser &parser)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    twig::common::fatalIf(fd < 0, "twigbench: socket: ", std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    twig::common::fatalIf(
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0,
        "twigbench: connect: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::string hello;
    serve::encodeHello(hello, serve::HelloMsg{});
    writeAll(fd, hello);
    const std::string body =
        readFrame(fd, parser, serve::FrameType::HelloAck);
    serve::FrameView view{serve::FrameType::HelloAck, body.data(), body.size()};
    serve::HelloAckMsg ack;
    twig::common::fatalIf(!serve::decodeHelloAck(view, ack) ||
                              ack.numServices != kServices,
                          "twigbench: bad HelloAck");
    return fd;
}

/** Send Bye, wait briefly for ByeAck, close. */
void
sayBye(int fd)
{
    std::string bye;
    serve::encodeBye(bye);
    const auto sent = ::write(fd, bye.data(), bye.size());
    if (sent == static_cast<ssize_t>(bye.size())) {
        char buf[4096];
        pollfd pfd{fd, POLLIN, 0};
        const auto t0 = Clock::now();
        while (since(t0) < 1.0 && ::poll(&pfd, 1, 100) > 0) {
            if (::read(fd, buf, sizeof(buf)) <= 0)
                break;
        }
    }
    ::close(fd);
}

// --- the open-loop generator -----------------------------------------

struct Frame
{
    double dueS = 0.0;
    double sentS = -1.0;
    double ackS = -1.0;
    std::uint32_t count = 0;
    std::uint8_t service = 0;
    std::uint8_t conn = 0;
    /** 0 = nominal, 1.. = ladder rung. */
    std::uint8_t phase = 0;
};

struct StatsSample
{
    double atS = 0.0;
    serve::StatsMsg msg;
};

struct Connection
{
    int fd = -1;
    serve::FrameParser parser;
    std::string out;
    std::size_t outOff = 0;
    bool failed = false;
};

/** One busy-polling thread, open loop over a fixed frame schedule. */
class Generator
{
  public:
    Generator(std::vector<Frame> schedule, std::vector<int> fds,
              Clock::time_point t0, double stats_until_s)
        : frames_(std::move(schedule)), t0_(t0), statsUntilS_(stats_until_s)
    {
        for (int fd : fds) {
            conns_.push_back(std::make_unique<Connection>());
            conns_.back()->fd = fd;
        }
    }

    /** Send every frame on schedule; return once all are acked or
     * @p drain_s after the last was due. */
    void
    run(double drain_s)
    {
        for (auto &c : conns_)
            ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
        const double end_s = frames_.empty() ? 0.0 : frames_.back().dueS;
        std::vector<pollfd> pfds(conns_.size());
        std::size_t next = 0;
        double next_stats = 0.0;
        for (;;) {
            double now = since(t0_);
            for (; next < frames_.size() && frames_[next].dueS <= now; ++next)
                emit(next, now);
            if (now < statsUntilS_ && now >= next_stats &&
                !conns_[0]->failed) {
                serve::encodeStatsReq(conns_[0]->out);
                next_stats += kStatsPollS;
                if (next_stats < now)
                    next_stats = now + kStatsPollS;
            }
            for (auto &c : conns_)
                flush(*c);
            if (next == frames_.size() &&
                (acked_ == sent_ || now > end_s + drain_s))
                break;

            for (std::size_t i = 0; i < conns_.size(); ++i) {
                const Connection &c = *conns_[i];
                pfds[i].fd = c.failed ? -1 : c.fd;
                pfds[i].events = static_cast<short>(
                    POLLIN | (c.out.size() > c.outOff ? POLLOUT : 0));
                pfds[i].revents = 0;
            }
            const int ready = ::poll(pfds.data(), pfds.size(), 0);
            if (ready <= 0)
                continue;
            now = since(t0_);
            for (std::size_t i = 0; i < conns_.size(); ++i) {
                if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                    drain(*conns_[i], now);
            }
        }
    }

    const std::vector<Frame> &frames() const { return frames_; }
    const std::vector<StatsSample> &stats() const { return stats_; }
    std::size_t failedConnections() const
    {
        return static_cast<std::size_t>(
            std::count_if(conns_.begin(), conns_.end(),
                          [](const auto &c) { return c->failed; }));
    }
    std::uint64_t acked() const { return acked_; }

    /** Close every connection (Bye first on the healthy ones). */
    void
    close()
    {
        for (auto &c : conns_) {
            if (c->fd < 0)
                continue;
            if (c->failed)
                ::close(c->fd);
            else
                sayBye(c->fd);
            c->fd = -1;
        }
    }

  private:
    void
    emit(std::size_t tag, double now)
    {
        Frame &f = frames_[tag];
        Connection &c = *conns_[f.conn];
        if (c.failed)
            return;
        serve::BatchMsg msg;
        msg.tag = tag;
        msg.service = f.service;
        msg.count = f.count;
        serve::encodeBatch(c.out, msg);
        f.sentS = now;
        ++sent_;
    }

    void
    flush(Connection &c)
    {
        while (!c.failed && c.outOff < c.out.size()) {
            const ssize_t n = ::send(c.fd, c.out.data() + c.outOff,
                                     c.out.size() - c.outOff, MSG_NOSIGNAL);
            if (n > 0) {
                c.outOff += static_cast<std::size_t>(n);
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                break;
            } else if (!(n < 0 && errno == EINTR)) {
                c.failed = true;
            }
        }
        if (c.outOff == c.out.size()) {
            c.out.clear();
            c.outOff = 0;
        }
    }

    void
    drain(Connection &c, double now)
    {
        char buf[65536];
        for (;;) {
            const ssize_t n = ::read(c.fd, buf, sizeof(buf));
            if (n > 0) {
                c.parser.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
                c.failed = true;
            break;
        }
        serve::FrameView view;
        for (;;) {
            const auto st = c.parser.next(view);
            if (st == serve::FrameParser::Status::NeedMore)
                break;
            if (st == serve::FrameParser::Status::Error) {
                c.failed = true;
                break;
            }
            if (view.type == serve::FrameType::BatchAck) {
                serve::BatchAckMsg ack;
                if (!serve::decodeBatchAck(view, ack) ||
                    ack.tag >= frames_.size() || frames_[ack.tag].ackS >= 0) {
                    c.failed = true;
                    break;
                }
                frames_[ack.tag].ackS = now;
                ++acked_;
            } else if (view.type == serve::FrameType::Stats) {
                StatsSample s;
                s.atS = now;
                if (!serve::decodeStats(view, s.msg)) {
                    c.failed = true;
                    break;
                }
                if (stats_.empty() || s.msg.step != stats_.back().msg.step)
                    stats_.push_back(std::move(s));
            }
        }
    }

    std::vector<Frame> frames_;
    std::vector<std::unique_ptr<Connection>> conns_;
    Clock::time_point t0_;
    double statsUntilS_;
    std::vector<StatsSample> stats_;
    std::uint64_t sent_ = 0;
    std::uint64_t acked_ = 0;
};

// --- schedule and phase metrics --------------------------------------

/** Phase lengths for a run of @p seconds: the nominal phase is long
 * enough for interval_ms_p95, and for kQosIntervals after the learning
 * horizon of scenarios/serve.json (240 intervals). */
struct Phases
{
    double nominalS = 0.0;
    double rungS = 0.0;

    explicit Phases(double seconds)
        : nominalS(std::max(0.75 * seconds, 14.0)),
          rungS(std::max(0.25 * seconds / kNumRungs, 0.8))
    {
    }

    double rungStart(std::size_t r) const { return nominalS + r * rungS; }
    double endS() const { return rungStart(kNumRungs); }
};

std::vector<Frame>
buildSchedule(const Phases &ph, const std::vector<double> &nominal_rps,
              std::uint64_t seed)
{
    std::vector<Frame> frames;
    // Nominal: per connection and service one frame per tick. The seed
    // draws each tick's share of the rate (uniform in [0.5, 1.5), mean
    // 1); the count carries fractional remainders, so the long-run rate
    // is the nominal one whatever the seed.
    twig::common::Rng rng(seed);
    std::vector<double> carry(kConnections * kServices, 0.0);
    const auto ticks = static_cast<std::size_t>(ph.nominalS / kTickS);
    for (std::size_t k = 0; k < ticks; ++k) {
        for (std::size_t c = 0; c < kConnections; ++c) {
            for (std::size_t s = 0; s < kServices; ++s) {
                double &acc = carry[c * kServices + s];
                acc += nominal_rps[s] / kConnections * kTickS *
                    (0.5 + rng.uniform());
                const auto count = static_cast<std::uint32_t>(acc);
                acc -= count;
                if (count == 0)
                    continue;
                Frame f;
                f.dueS = static_cast<double>(k) * kTickS;
                f.count = count;
                f.service = static_cast<std::uint8_t>(s);
                f.conn = static_cast<std::uint8_t>(c);
                frames.push_back(f);
            }
        }
    }
    // Ladder: count-1 frames at a fixed rate, alternating connection
    // and service.
    for (std::size_t r = 0; r < kNumRungs; ++r) {
        const auto n = static_cast<std::size_t>(kRungs[r] * ph.rungS);
        for (std::size_t i = 0; i < n; ++i) {
            Frame f;
            f.dueS = ph.rungStart(r) + static_cast<double>(i) / kRungs[r];
            f.count = 1;
            f.conn = static_cast<std::uint8_t>(i % kConnections);
            f.service =
                static_cast<std::uint8_t>((i / kConnections) % kServices);
            f.phase = static_cast<std::uint8_t>(r + 1);
            frames.push_back(f);
        }
    }
    return frames;
}

/** Ack latency (us) and lag (us) of one phase's frames. */
struct PhaseLatency
{
    std::vector<double> ackUs;
    std::vector<double> lagUs;
    std::uint64_t frames = 0;
    std::uint64_t acked = 0;
    /** Acked frames' latency, first and last quarter of the phase. */
    std::vector<double> headUs;
    std::vector<double> tailUs;
};

PhaseLatency
phaseLatency(const std::vector<Frame> &frames, std::uint8_t phase,
             double start_s, double len_s)
{
    PhaseLatency out;
    for (const Frame &f : frames) {
        if (f.phase != phase)
            continue;
        ++out.frames;
        if (f.sentS >= 0)
            out.lagUs.push_back((f.sentS - f.dueS) * 1e6);
        if (f.ackS < 0)
            continue;
        ++out.acked;
        const double us = (f.ackS - f.dueS) * 1e6;
        out.ackUs.push_back(us);
        const double at = (f.dueS - start_s) / len_s;
        if (at < 0.25)
            out.headUs.push_back(us);
        else if (at >= 0.75)
            out.tailUs.push_back(us);
    }
    return out;
}

// --- offline probes (traced run) -------------------------------------

void
probeWire(const Options &opt, Report &report)
{
    twig::common::Rng rng(deriveSeed(opt.seed, 6));
    std::string stream;
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kProbeFrames; ++i) {
        serve::BatchMsg msg;
        msg.tag = i;
        msg.service = static_cast<std::uint32_t>(rng() % kServices);
        msg.count = static_cast<std::uint32_t>(1 + rng() % 64);
        expected += msg.count;
        serve::encodeBatch(stream, msg);
    }
    std::vector<double> parse_ns;
    std::vector<double> encode_ns;
    bool parsed_ok = true;
    std::string acks;
    acks.reserve(kProbeFrames * 32);
    for (std::size_t rep = 0; rep < kProbeRepetitions; ++rep) {
        serve::FrameParser parser;
        std::uint64_t total = 0;
        std::uint64_t frames = 0;
        const auto t0 = Clock::now();
        for (std::size_t off = 0; off < stream.size(); off += 65536) {
            parser.append(stream.data() + off,
                          std::min<std::size_t>(65536, stream.size() - off));
            serve::FrameView view;
            while (parser.next(view) == serve::FrameParser::Status::Frame) {
                serve::BatchMsg msg;
                parsed_ok = parsed_ok && serve::decodeBatch(view, msg);
                total += msg.count;
                ++frames;
            }
        }
        parse_ns.push_back(since(t0) * 1e9 / kProbeFrames);
        parsed_ok = parsed_ok && total == expected && frames == kProbeFrames &&
            !parser.failed();

        acks.clear();
        const auto t1 = Clock::now();
        for (std::size_t i = 0; i < kProbeFrames; ++i)
            serve::encodeBatchAck(acks, serve::BatchAckMsg{i, i});
        encode_ns.push_back(since(t1) * 1e9 / kProbeFrames);
    }
    report.check("probe_parse_roundtrip", parsed_ok,
                 std::to_string(kProbeFrames) + " frames");
    report.metric("serve.parse_ns_per_frame", median(parse_ns), "ns");
    report.metric("serve.ack_encode_ns_per_frame", median(encode_ns), "ns");
}

/** A serve.json fleet at fixed LiveLoad rates, as the daemon runs it. */
twig::harness::FleetSetup
buildServeFleet(const ScenarioSpec &spec,
                const twig::harness::ManagerRegistry &registry,
                const std::vector<double> &rps)
{
    std::vector<std::unique_ptr<twig::sim::LoadGenerator>> loads;
    const std::vector<double> caps = twig::harness::fleetMaxRps(spec);
    for (std::size_t s = 0; s < caps.size(); ++s) {
        auto live = std::make_unique<serve::LiveLoad>(caps[s]);
        live->set(rps[s]);
        loads.push_back(std::move(live));
    }
    return twig::harness::buildFleet(spec, registry, 1, std::move(loads));
}

struct FleetProbe
{
    std::vector<double> stepS;
    double wallS = 0.0;
    double cpuS = 0.0;
    double arrivals = 0.0;
    std::uint64_t checksum = twig::common::kFnvOffsetBasis;
    bool sane = true;
};

FleetProbe
stepProbe(twig::cluster::ClusterManager &fleet)
{
    FleetProbe p;
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kProbeFleetSteps; ++i) {
        const double cpu0 = threadCpuSeconds();
        const auto &fs = fleet.step();
        p.stepS.push_back(threadCpuSeconds() - cpu0);
        p.checksum = fleetChecksum(fs, p.checksum);
        p.sane = p.sane && fleetTelemetrySane(fs);
        for (const auto &node : fs.nodes) {
            for (const auto &svc : node.services)
                p.arrivals += static_cast<double>(svc.arrivals);
        }
    }
    p.wallS = since(start);
    p.cpuS = processCpuSeconds() - cpu0;
    return p;
}

void
probeFleet(const ScenarioSpec &spec, const std::vector<double> &rps,
           Report &report)
{
    const auto t0 = Clock::now();
    auto plain_fleet = buildServeFleet(
        spec, twig::harness::ManagerRegistry::builtin(), rps);
    report.metric("harness.build_fleet_s", since(t0), "s");
    const FleetProbe plain = stepProbe(*plain_fleet.fleet);

    std::vector<TimedTwig *> timed;
    const auto registry = timedRegistry(timed);
    auto traced_fleet = buildServeFleet(spec, registry, rps);
    TscCalibration tsc;
    SimProfile::reset();
    SimProfile::enable();
    const SimProfile before = SimProfile::snapshot();
    traced_fleet.fleet->resetPhaseProfile();
    const FleetProbe traced = stepProbe(*traced_fleet.fleet);
    const SimProfile delta = SimProfile::snapshot().since(before);
    SimProfile::disable();
    tsc.finish();

    report.check("trace_checksum_matches_untraced",
                 traced.checksum == plain.checksum,
                 hex(traced.checksum) + " vs " + hex(plain.checksum));
    report.check("offline_fleet_telemetry_sane", plain.sane && traced.sane,
                 "p99/power finite and >= 0");
    const double nodes =
        static_cast<double>(traced_fleet.fleet->numNodes());
    const double steps = static_cast<double>(kProbeFleetSteps);
    report.metric("serve.fleet_step_ms", median(plain.stepS) * 1e3, "ms");
    reportSimLayer(report, delta, tsc, steps * nodes, traced.arrivals,
                   traced.cpuS);
    reportDecideLayer(report, timed, traced.cpuS);
    reportClusterLayer(report, traced_fleet.fleet->phaseProfile(), tsc,
                       traced.wallS, 0.0, median(traced.stepS) * 1e3);
    report.metric("common.pool_busy_pct", 100.0 * traced.cpuS / traced.wallS,
                  "%");
    reportTraceOverhead(report, steps / plain.cpuS, steps / traced.cpuS);
}

// --- the daemon ------------------------------------------------------

struct Live
{
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<int> fds;
    double setupS = 0.0;
};

Live
startLive(const ScenarioSpec &spec, std::size_t window_intervals)
{
    Live live;
    const auto t0 = Clock::now();
    serve::DaemonOptions opts;
    opts.intervalMs = kIntervalMs;
    opts.windowIntervals = window_intervals;
    live.daemon = std::make_unique<serve::Daemon>(spec, opts);
    live.daemon->start();
    for (std::size_t c = 0; c < kConnections; ++c) {
        serve::FrameParser parser;
        live.fds.push_back(connectAndHello(live.daemon->port(), parser));
    }
    live.setupS = since(t0);
    return live;
}

} // namespace

void
runServeLive(const Options &opt, Report &report)
{
    ScenarioSpec spec =
        ScenarioSpec::fromFile(opt.repo + "/scenarios/serve.json");
    spec.seed = deriveSeed(opt.seed, 4);
    const Phases ph(opt.seconds);
    // The daemon's trailing summary covers the last rung only, which is
    // loaded to the end.
    const auto window_intervals = static_cast<std::size_t>(
        0.8 * ph.rungS * 1e3 / kIntervalMs);

    std::vector<double> setup_s;
    Live live;
    const std::size_t reps = opt.trace ? 1 : kSetupRepetitions;
    for (std::size_t r = 0; r < reps; ++r) {
        if (live.daemon) {
            for (int fd : live.fds)
                sayBye(fd);
            live.daemon->requestShutdown();
            live.daemon->join();
        }
        live = startLive(spec, window_intervals);
        setup_s.push_back(live.setupS);
    }
    if (!opt.trace)
        reportSetup(report, setup_s);

    std::vector<double> nominal_rps;
    for (double cap : live.daemon->maxRps())
        nominal_rps.push_back(kNominalLoad * cap);
    report.info("nominal_s", ph.nominalS);
    report.info("rung_s", ph.rungS);

    std::vector<double> targets;
    for (const auto &s : spec.services)
        targets.push_back(twig::services::byName(s.service).qosTargetMs);

    Generator gen(buildSchedule(ph, nominal_rps, deriveSeed(opt.seed, 5)),
                  live.fds, Clock::now(), ph.endS());
    gen.run(/*drain_s=*/2.0);
    gen.close();
    live.daemon->requestShutdown();
    const serve::DaemonSummary summary = live.daemon->join();

    // --- frames ------------------------------------------------------
    const auto &frames = gen.frames();
    const std::uint64_t attempted = frames.size();
    const std::uint64_t unacked = attempted - gen.acked();
    report.attempted(attempted);
    report.failed(unacked);
    report.check("every_frame_acked", unacked == 0,
                 std::to_string(gen.acked()) + " of " +
                     std::to_string(attempted));
    report.check("no_failed_connection", gen.failedConnections() == 0,
                 std::to_string(gen.failedConnections()) + " failed");
    report.metric("serve.unacked_pct",
                  100.0 * static_cast<double>(unacked) /
                      static_cast<double>(attempted),
                  "%");

    PhaseLatency nominal = phaseLatency(frames, 0, 0.0, ph.nominalS);
    report.check("ack_p99_supported",
                 percentileSupported(99.0, nominal.ackUs.size()),
                 std::to_string(nominal.ackUs.size()) + " acks");
    const double lag_p99 = percentile(nominal.lagUs, 99.0);
    report.validity("generator_within_lag_bound", lag_p99 <= kLagBoundUs,
                    std::to_string(lag_p99) + " us p99 lag, bound " +
                        std::to_string(kLagBoundUs));
    report.metric("serve.ack_us_p50", median(nominal.ackUs), "us");
    report.metric("serve.ack_us_p99", percentile(nominal.ackUs, 99.0), "us");
    report.metric("loadgen.lag_us_p99", lag_p99, "us");

    // --- ladder ------------------------------------------------------
    double max_at_slo = 0.0;
    twig::common::Json rungs = twig::common::Json::array();
    for (std::size_t r = 0; r < kNumRungs; ++r) {
        PhaseLatency pl = phaseLatency(frames, static_cast<std::uint8_t>(r + 1),
                                       ph.rungStart(r), ph.rungS);
        const double p99 = percentile(pl.ackUs, 99.0);
        const double rung_lag = percentile(pl.lagUs, 99.0);
        const double head = median(pl.headUs);
        const bool backlog_ok = median(pl.tailUs) <= 2.0 * head + 100.0;
        const bool pass = pl.acked == pl.frames && p99 <= kSloUs &&
            rung_lag <= kLagBoundUs && backlog_ok &&
            percentileSupported(99.0, pl.ackUs.size());
        if (pass)
            max_at_slo = kRungs[r];
        const double per_s = static_cast<double>(pl.acked) / ph.rungS;
        char rung[16];
        std::snprintf(rung, sizeof(rung), "%.0fk", kRungs[r] / 1000.0);
        report.metric(std::string("serve.frames_per_s_") + rung, per_s, "1/s");
        report.metric(std::string("serve.ack_us_p99_") + rung, p99, "us");
        twig::common::Json j = twig::common::Json::object();
        j.set("rate", kRungs[r]);
        j.set("acked_per_s", per_s);
        j.set("ack_us_p99", p99);
        j.set("lag_us_p99", rung_lag);
        j.set("backlog_ok", backlog_ok);
        j.set("pass", pass);
        rungs.push(std::move(j));
    }
    report.info("ladder", std::move(rungs));
    report.metric("serve.max_frames_per_s_at_slo", max_at_slo, "1/s");

    // --- what the daemon reported, interval by interval ---------------
    std::vector<const StatsSample *> window;
    bool stats_sane = true;
    for (const StatsSample &s : gen.stats()) {
        for (double p99 : s.msg.p99Ms)
            stats_sane = stats_sane && std::isfinite(p99) && p99 >= 0.0;
        stats_sane = stats_sane && std::isfinite(s.msg.powerW) &&
            s.msg.powerW >= 0.0;
        if (s.atS >= kNominalSkipS && s.atS < ph.nominalS)
            window.push_back(&s);
    }
    report.check("telemetry_sane", stats_sane,
                 "p99/power finite and >= 0 in every Stats frame");
    // The Stats window lies inside the nominal phase by construction and
    // the summary window inside the last rung: both must see load. A
    // single interval can still observe nothing when the daemon's event
    // thread stalls for a whole interval; that is counted, not failed.
    std::size_t idle_intervals = 0;
    std::vector<double> window_rps(kServices, 0.0);
    for (const StatsSample *s : window) {
        bool idle = false;
        for (std::size_t i = 0; i < kServices; ++i) {
            window_rps[i] += s->msg.offeredRps[i];
            idle = idle || s->msg.offeredRps[i] <= 0.0;
        }
        idle_intervals += idle ? 1 : 0;
    }
    bool loaded = window.size() >= 2;
    for (std::size_t i = 0; i < kServices; ++i)
        loaded = loaded && window_rps[i] > 0.0 && summary.observedRps[i] > 0.0;
    report.info("idle_nominal_intervals",
                static_cast<std::uint64_t>(idle_intervals));
    report.check("windows_cover_loaded_intervals", loaded,
                 std::to_string(window.size()) +
                     " nominal Stats intervals (" +
                     std::to_string(idle_intervals) +
                     " observed no load); summary window " +
                     std::to_string(summary.metrics.windowSteps));
    report.check("qos_window_complete", window.size() >= kQosIntervals,
                 std::to_string(window.size()) + " intervals, " +
                     std::to_string(kQosIntervals) + " needed");
    if (window.size() < 2)
        return;

    std::vector<double> spacing_s;
    for (std::size_t i = 1; i < window.size(); ++i) {
        const double steps =
            static_cast<double>(window[i]->msg.step - window[i - 1]->msg.step);
        spacing_s.push_back((window[i]->atS - window[i - 1]->atS) / steps);
    }
    const double span_s = window.back()->atS - window.front()->atS;
    const std::uint64_t span_steps =
        window.back()->msg.step - window.front()->msg.step;
    reportIntervals(report, spacing_s,
                    static_cast<double>(span_steps) / span_s);
    report.metric("serve.ctl_pace_pct",
                  ctlPacePct(span_steps, kIntervalMs * 1e-3, span_s), "%");

    double observed = 0.0;
    for (const StatsSample *s : window) {
        for (double rps : s->msg.offeredRps)
            observed += rps;
    }
    observed /= static_cast<double>(window.size());
    double offered = 0.0;
    for (const Frame &f : frames) {
        if (f.phase == 0)
            offered += f.count;
    }
    offered /= ph.nominalS;
    report.info("observed_rps", observed);
    report.info("offered_rps", offered);
    report.metric("serve.load_accuracy_pct", loadAccuracyPct(observed, offered),
                  "%");

    double met = 0.0;
    double energy_j = 0.0;
    const std::size_t q = std::min(window.size(), kQosIntervals);
    const double interval_s = twig::sim::MachineConfig{}.intervalSeconds;
    for (std::size_t i = window.size() - q; i < window.size(); ++i) {
        for (std::size_t s = 0; s < targets.size(); ++s)
            met += window[i]->msg.p99Ms[s] <= targets[s] ? 1.0 : 0.0;
        energy_j += window[i]->msg.powerW * interval_s;
    }
    report.metric("qos_pct",
                  100.0 * met / static_cast<double>(q * targets.size()), "%");
    report.metric("energy_kj", energy_j * 1e-3, "kJ");

    if (opt.trace) {
        probeWire(opt, report);
        probeFleet(spec, nominal_rps, report);
    }
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace twigbench
