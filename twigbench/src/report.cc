#include "report.hh"

#include <cmath>
#include <fstream>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "common/sim_counters.hh"

#ifndef TWIGBENCH_BUILD_FLAGS
#define TWIGBENCH_BUILD_FLAGS "unknown"
#endif

namespace twigbench {

Report::Report(std::string workload, std::uint64_t seed, double seconds,
               bool trace)
    : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
      trace_(trace)
{
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

void
Report::check(const std::string &name, bool ok, const std::string &detail)
{
    checks_.push_back({name, {ok, detail}});
}

void
Report::validity(const std::string &name, bool ok, const std::string &detail)
{
    validity_.push_back({name, {ok, detail}});
}

void
Report::info(const std::string &key, twig::common::Json value)
{
    info_.set(key, std::move(value));
}

bool
Report::correct() const
{
    for (const auto &[name, c] : checks_) {
        if (!c.first)
            return false;
    }
    for (const auto &[name, m] : metrics_) {
        if (!std::isfinite(m.first))
            return false;
    }
    return !checks_.empty();
}

twig::common::Json
Report::toJson() const
{
    twig::common::Json out = twig::common::Json::object();
    out.set("workload", workload_);
    out.set("seed", seed_);
    out.set("seconds", seconds_);
    out.set("trace", trace_);
    out.set("correct", correct());
    out.set("attempted", attempted_);
    out.set("failed", failed_);
    twig::common::Json metrics = twig::common::Json::object();
    for (const auto &[name, m] : metrics_) {
        twig::common::Json v = twig::common::Json::object();
        // Json cannot carry NaN/inf; correct() already reports them.
        v.set("value", std::isfinite(m.first) ? m.first : -1.0);
        v.set("unit", m.second);
        metrics.set(name, std::move(v));
    }
    out.set("metrics", std::move(metrics));
    auto list = [](const auto &entries) {
        twig::common::Json out = twig::common::Json::array();
        for (const auto &[name, c] : entries) {
            twig::common::Json v = twig::common::Json::object();
            v.set("name", name);
            v.set("ok", c.first);
            v.set("detail", c.second);
            out.push(std::move(v));
        }
        return out;
    };
    out.set("checks", list(checks_));
    out.set("validity", list(validity_));
    out.set("info", info_);
    twig::common::Json host = hostFingerprint();
    host.set("peak_rss_mb", peakRssMb());
    out.set("host", std::move(host));
    return out;
}

twig::common::Json
hostFingerprint()
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    twig::common::Json host = twig::common::Json::object();
    host.set("cpu_model", model);
    host.set("nproc",
             static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    host.set("compiler", std::string("g++ ") + __VERSION__);
    host.set("build_flags", TWIGBENCH_BUILD_FLAGS);
    return host;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

TscCalibration::TscCalibration()
    : tsc0_(twig::common::simprof::now()), t0_(Clock::now())
{
}

void
TscCalibration::finish()
{
    const std::uint64_t cycles = twig::common::simprof::now() - tsc0_;
    const double ns = secondsBetween(t0_, Clock::now()) * 1e9;
    nsPerCycle_ = cycles > 0 ? ns / static_cast<double>(cycles) : 0.0;
}

} // namespace twigbench
