/**
 * @file
 * Strict command-line flag parser shared by the tools (twig,
 * twig_serve, twig_loadgen) and the benches (bench::BenchArgs):
 * unknown flags, missing values, malformed or non-finite numbers and
 * values outside a flag's bounds are hard errors with a message, never
 * silently ignored or defaulted.
 *
 * Flags are registered up front with a typed destination; parse()
 * fills the destinations and returns either success, an error string,
 * or a help request, plus the list of flags the line gave (so a caller
 * can tell "left at its default" from "set to the default value").
 * Repeatable string flags append to a vector
 * (e.g. --service NAME --service NAME).
 */

#ifndef TWIG_COMMON_FLAGS_HH
#define TWIG_COMMON_FLAGS_HH

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace twig::common {

/** Interval a double flag must fall in: [min, max], or (min, max]
 * with openMin. Infinite ends are unbounded. */
struct FlagRange
{
    double min = -HUGE_VAL;
    double max = HUGE_VAL;
    bool openMin = false;
};

/** Typed flag registry + strict parser. */
class FlagParser
{
  public:
    struct Result
    {
        /** Empty on success; otherwise what is wrong with the line. */
        std::string error;
        bool helpRequested = false;
        /** Every flag the line gave, in order (repeats included). */
        std::vector<std::string> given;

        bool ok() const { return error.empty() && !helpRequested; }

        /** Whether @p flag appeared on the line. */
        bool
        has(const std::string &flag) const
        {
            return std::find(given.begin(), given.end(), flag) !=
                given.end();
        }
    };

    /** Extra rule on a string value: returns what is wrong with it
     * (the parser prefixes the flag name), or the empty string. */
    using Check = std::function<std::string(const std::string &)>;

    /** --flag (no value): sets @p dest to true. */
    void
    addBool(const std::string &flag, bool *dest, const std::string &help)
    {
        add(flag, help + " (flag)", false, [dest](const std::string &) {
            *dest = true;
            return std::string();
        });
    }

    /** --flag VALUE: any string @p check accepts. */
    void
    addString(const std::string &flag, std::string *dest,
              const std::string &help, Check check = {})
    {
        add(flag, help, true,
            [flag, dest, check](const std::string &v) {
                if (auto err = checked(flag, check, v); !err.empty())
                    return err;
                *dest = v;
                return std::string();
            });
    }

    /** --flag VALUE, repeatable: appends to @p dest. @p check sees
     * each value before it is appended. */
    void
    addStringList(const std::string &flag, std::vector<std::string> *dest,
                  const std::string &help, Check check = {})
    {
        add(flag, help + " (repeatable)", true,
            [flag, dest, check](const std::string &v) {
                if (auto err = checked(flag, check, v); !err.empty())
                    return err;
                dest->push_back(v);
                return std::string();
            });
    }

    /** --flag N: integer in [min, max]; the default bounds are every
     * value @p T holds. */
    template <typename T>
    void
    addCount(const std::string &flag, T *dest, const std::string &help,
             std::uint64_t min = 0,
             std::uint64_t max = std::numeric_limits<T>::max())
    {
        add(flag, help, true, [flag, dest, min, max](const std::string &v) {
            std::uint64_t out = 0;
            if (!parseCount(v, out))
                return flag + " wants a non-negative integer, got '" + v +
                    "'";
            if (out < min)
                return flag + " must be at least " + std::to_string(min);
            if (out > max)
                return flag + " must be at most " + std::to_string(max);
            *dest = static_cast<T>(out);
            return std::string();
        });
    }

    /** --flag MIN:MAX: two integers with 1 <= MIN <= MAX. */
    void
    addMinMax(const std::string &flag, std::size_t *min, std::size_t *max,
              const std::string &help)
    {
        add(flag, help, true, [flag, min, max](const std::string &v) {
            const auto colon = v.find(':');
            std::uint64_t lo = 0, hi = 0;
            if (colon == std::string::npos ||
                !parseCount(v.substr(0, colon), lo) ||
                !parseCount(v.substr(colon + 1), hi) || lo == 0 ||
                lo > hi)
                return flag + " wants MIN:MAX with 1 <= MIN <= MAX, got '" +
                    v + "'";
            *min = static_cast<std::size_t>(lo);
            *max = static_cast<std::size_t>(hi);
            return std::string();
        });
    }

    /** --flag F: finite double inside @p in. */
    void
    addDouble(const std::string &flag, double *dest,
              const std::string &help, FlagRange in = {})
    {
        add(flag, help, true, [flag, dest, in](const std::string &v) {
            errno = 0;
            char *end = nullptr;
            const double d = std::strtod(v.c_str(), &end);
            if (errno != 0 || end == v.c_str() || *end != '\0')
                return flag + " wants a number, got '" + v + "'";
            if (!std::isfinite(d))
                return flag + " wants a finite number, got '" + v + "'";
            if (d < in.min || d > in.max || (in.openMin && d == in.min))
                return flag + " wants a number in " + describe(in) +
                    ", got '" + v + "'";
            *dest = d;
            return std::string();
        });
    }

    /**
     * Strict parse: every argv entry must be a registered flag (with
     * its value when the flag takes one) or --help/-h. The first
     * problem aborts the parse with Result::error set.
     */
    Result
    parse(int argc, char **argv) const
    {
        Result res;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                res.helpRequested = true;
                return res;
            }
            const auto flag =
                std::find_if(flags_.begin(), flags_.end(),
                             [&](const Flag &f) { return f.name == arg; });
            if (flag == flags_.end()) {
                res.error = "unknown flag '" + arg + "' (see --help)";
                return res;
            }
            std::string value;
            if (flag->takesValue) {
                if (i + 1 >= argc) {
                    res.error = arg + " is missing its value";
                    return res;
                }
                value = argv[++i];
            }
            res.error = flag->apply(value);
            if (!res.error.empty())
                return res;
            res.given.push_back(arg);
        }
        return res;
    }

    /** One "  --flag V   help" line per registered flag. */
    std::string
    usageLines() const
    {
        std::string out;
        for (const auto &f : flags_) {
            std::string head = "  " + f.name + (f.takesValue ? " V" : "");
            head.resize(std::max<std::size_t>(head.size(), 22), ' ');
            out += head + "  " + f.help + "\n";
        }
        return out;
    }

  private:
    struct Flag
    {
        std::string name;
        std::string help;
        bool takesValue = true;
        /** Returns an error message, empty on success. */
        std::function<std::string(const std::string &)> apply;
    };

    void
    add(const std::string &flag, const std::string &help, bool takes_value,
        std::function<std::string(const std::string &)> apply)
    {
        flags_.push_back({flag, help, takes_value, std::move(apply)});
    }

    static std::string
    checked(const std::string &flag, const Check &check,
            const std::string &value)
    {
        if (!check)
            return {};
        const std::string err = check(value);
        return err.empty() ? err : flag + " " + err;
    }

    static std::string
    describe(const FlagRange &in)
    {
        auto end = [](double d) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%g", d);
            return std::string(buf);
        };
        return (in.openMin || std::isinf(in.min) ? "(" : "[") +
            end(in.min) + ", " + end(in.max) +
            (std::isinf(in.max) ? ")" : "]");
    }

    static bool
    parseCount(const std::string &text, std::uint64_t &out)
    {
        if (text.empty() || text[0] == '-' || text[0] == '+')
            return false;
        errno = 0;
        char *end = nullptr;
        out = std::strtoull(text.c_str(), &end, 10);
        return errno == 0 && end != text.c_str() && *end == '\0';
    }

    std::vector<Flag> flags_;
};

} // namespace twig::common

#endif // TWIG_COMMON_FLAGS_HH
