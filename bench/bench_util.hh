/**
 * @file
 * Shared helpers for the figure/table reproduction benches: argument
 * parsing (--full for paper-length schedules, --seed), table printing.
 */

#ifndef TWIG_BENCH_BENCH_UTIL_HH
#define TWIG_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "autoscale/node_class.hh"
#include "common/flags.hh"

namespace twig::bench {

/** Common bench options. */
struct BenchArgs
{
    /** Run the paper-length schedules instead of the compressed ones. */
    bool full = false;
    std::uint64_t seed = 42;
    /** Worker threads for independent runs (harness/sweep.hh);
     * 1 executes the sweep serially on the calling thread. The result
     * is bit-identical either way: per-run seeds depend only on
     * (seed, config index), never on thread scheduling. */
    std::size_t jobs = 1;
    /** Bind address for benches that stand up a live server
     * (bench/fig_serve). */
    std::string listen = "127.0.0.1";
    /** TCP port for the same; 0 binds an ephemeral one. */
    std::uint16_t port = 0;
    /** Served-phase wall-clock length, seconds. */
    double durationS = 2.0;
    /** Load-generator connections. */
    std::size_t connections = 8;
    /** Routing domains for fleet benches; 0 = bench default (each
     * bench picks per scale). Explicit values must be >= 1. */
    std::size_t domains = 0;
    /** Elastic-fleet bounds from --autoscale MIN:MAX; 0:0 = bench
     * default. MIN must be >= 1 and <= MAX. */
    std::size_t autoscaleMin = 0;
    std::size_t autoscaleMax = 0;
    /** Override hourly rate for every slot, $; 0 = per-class defaults. */
    double costPerNodeHour = 0.0;
    /** Built-in node-class ids for heterogeneous fleet benches, in the
     * order given (no duplicates; each must name a catalogue class). */
    std::vector<std::string> nodeClasses;
    /** Values of bench-specific value flags passed via the @p extra
     * allowlist of parse/tryParse, keyed by flag (e.g. "--out"). */
    std::map<std::string, std::string> extra;

    /** Outcome of tryParse: either args, or an error, or --help. */
    struct ParseResult;

    /**
     * Strict parse. Rejects (with a message, not a guess): unknown
     * flags, flags missing their value, non-numeric / negative /
     * overflowed numbers, and --jobs 0. @p extra_value_flags lists
     * bench-specific flags that take one value (e.g. {"--out"});
     * their values land in BenchArgs::extra.
     */
    static ParseResult
    tryParse(int argc, char **argv,
             const std::vector<std::string> &extra_value_flags = {});

    /** tryParse, exiting on bad input (status 2) or --help (0). */
    static BenchArgs
    parse(int argc, char **argv,
          const std::vector<std::string> &extra_value_flags = {});

    static void
    printUsage(const char *prog,
               const std::vector<std::string> &extra_value_flags = {});

  private:
    /** The bench flags bound to @p a; each extra value flag lands in
     * the same slot of @p extra_values. */
    static common::FlagParser
    flags(BenchArgs &a, const std::vector<std::string> &extra_value_flags,
          std::vector<std::string> &extra_values);
};

struct BenchArgs::ParseResult
{
    BenchArgs args;
    /** Empty on success; otherwise what is wrong with the line. */
    std::string error;
    bool helpRequested = false;

    bool ok() const { return error.empty() && !helpRequested; }
};

inline common::FlagParser
BenchArgs::flags(BenchArgs &a,
                 const std::vector<std::string> &extra_value_flags,
                 std::vector<std::string> &extra_values)
{
    common::FlagParser p;
    p.addBool("--full", &a.full,
              "paper-length schedules (hours) instead of compressed ones");
    p.addCount("--seed", &a.seed,
               "base seed; per-run seeds are derived from (seed, config "
               "index)");
    p.addCount("--jobs", &a.jobs,
               "run independent experiment configs on N threads "
               "(default 1; results are identical for any N)",
               1);
    p.addString("--listen", &a.listen,
                "bind address of live-serving benches (default 127.0.0.1)",
                [](const std::string &v) {
                    return v.empty() ? "wants a non-empty address" : "";
                });
    p.addCount("--port", &a.port,
               "TCP port of live-serving benches; 0 binds an ephemeral "
               "one");
    p.addDouble("--duration-s", &a.durationS,
                "served-phase wall-clock seconds (default 2)",
                {.min = 0.0, .openMin = true});
    p.addCount("--connections", &a.connections,
               "load-generator connections (default 8)", 1);
    p.addCount("--domains", &a.domains,
               "routing domains of fleet benches (default: per-scale)", 1);
    p.addMinMax("--autoscale", &a.autoscaleMin, &a.autoscaleMax,
                "elastic-fleet bounds MIN:MAX of autoscale benches");
    p.addDouble("--cost-per-node-hour", &a.costPerNodeHour,
                "override every slot's hourly rate, $ (default: "
                "per-class)",
                {.min = 0.0});
    p.addStringList(
        "--node-class", &a.nodeClasses,
        "add a built-in node class to the fleet mix (std18 | little6 | "
        "gen1 | gen2; no duplicates)",
        [&a](const std::string &id) -> std::string {
            if (!autoscale::isBuiltinNodeClass(id))
                return "names the unknown class '" + id +
                    "' (want std18 | little6 | gen1 | gen2)";
            if (std::find(a.nodeClasses.begin(), a.nodeClasses.end(),
                          id) != a.nodeClasses.end())
                return "repeats class '" + id + "'";
            return {};
        });
    extra_values.resize(extra_value_flags.size());
    for (std::size_t i = 0; i < extra_value_flags.size(); ++i)
        p.addString(extra_value_flags[i], &extra_values[i],
                    "bench-specific value");
    return p;
}

inline BenchArgs::ParseResult
BenchArgs::tryParse(int argc, char **argv,
                    const std::vector<std::string> &extra_value_flags)
{
    ParseResult res;
    std::vector<std::string> extra_values;
    const auto parsed = flags(res.args, extra_value_flags, extra_values)
                            .parse(argc, argv);
    res.error = parsed.error;
    res.helpRequested = parsed.helpRequested;
    for (std::size_t i = 0; i < extra_value_flags.size(); ++i) {
        if (parsed.has(extra_value_flags[i]))
            res.args.extra[extra_value_flags[i]] = extra_values[i];
    }
    return res;
}

inline void
BenchArgs::printUsage(const char *prog,
                      const std::vector<std::string> &extra_value_flags)
{
    BenchArgs unused;
    std::vector<std::string> extra_values;
    std::printf("usage: %s [options]\n%s", prog,
                flags(unused, extra_value_flags, extra_values)
                    .usageLines()
                    .c_str());
}

inline BenchArgs
BenchArgs::parse(int argc, char **argv,
                 const std::vector<std::string> &extra_value_flags)
{
    auto res = tryParse(argc, argv, extra_value_flags);
    if (res.helpRequested) {
        printUsage(argv[0], extra_value_flags);
        std::exit(0);
    }
    if (!res.error.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0], res.error.c_str());
        printUsage(argv[0], extra_value_flags);
        std::exit(2);
    }
    return std::move(res.args);
}

/** Print a banner naming the experiment. */
inline void
banner(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

} // namespace twig::bench

#endif // TWIG_BENCH_BENCH_UTIL_HH
