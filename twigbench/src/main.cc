/**
 * @file
 * twigbench: runs one benchmark workload and prints its result as one
 * JSON line, the last line of standard output.
 *
 *   twigbench --workload single_learn|fleet_cohort|serve_live
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--repo DIR] [--scratch DIR]
 *
 * --trace 1 adds the per-layer measurements (split decide timing, the
 * simulator phase counters, offline serving probes) and checks that
 * they leave every simulated output unchanged. twigbench/run.py builds
 * this binary and turns its line into the benchmark's result.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "twigbench: %s\nusage: twigbench --workload "
                 "single_learn|fleet_cohort|serve_live [--seed N] "
                 "[--seconds S] [--trace 0|1] [--repo DIR] "
                 "[--scratch DIR]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0')
        usage((flag + " needs a non-negative integer").c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    twigbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage((flag + " needs a value").c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseUnsigned(flag, value);
        else if (flag == "--seconds")
            opt.seconds = static_cast<double>(parseUnsigned(flag, value));
        else if (flag == "--trace")
            opt.trace = parseUnsigned(flag, value) != 0;
        else if (flag == "--repo")
            opt.repo = value;
        else if (flag == "--scratch")
            opt.scratch = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opt.seconds < 1)
        usage("--seconds must be at least 1");
    if (opt.scratch.empty())
        opt.scratch = ".bench_build/twigbench-scratch-" +
            std::to_string(::getpid());

    twigbench::Report report(opt.workload, opt.seed, opt.seconds, opt.trace);
    try {
        if (opt.workload == "single_learn")
            twigbench::runSingleLearn(opt, report);
        else if (opt.workload == "fleet_cohort")
            twigbench::runFleetCohort(opt, report);
        else if (opt.workload == "serve_live")
            twigbench::runServeLive(opt, report);
        else
            usage(("unknown workload '" + opt.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "twigbench: %s\n", e.what());
        std::filesystem::remove_all(opt.scratch);
        return 1;
    }
    std::filesystem::remove_all(opt.scratch);
    std::printf("%s\n", report.toJson().dump().c_str());
    return 0;
}
