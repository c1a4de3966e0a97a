/**
 * @file
 * harness::SimProfile — the user-facing view of the simulator's
 * per-phase cycle counters (common/sim_counters.hh).
 *
 * Usage pattern (bench/fig_sim_throughput, tools/twig
 * --sim-profile):
 *
 *   SimProfile::enable();
 *   const SimProfile before = SimProfile::snapshot();
 *   ... run intervals ...
 *   const SimProfile delta = SimProfile::snapshot().since(before);
 *   delta.print(stdout);          // aligned phase table
 *   delta.writeJson(f, "    ");   // {"arrivals": {...}, ...}
 */

#ifndef TWIG_HARNESS_SIM_PROFILE_HH
#define TWIG_HARNESS_SIM_PROFILE_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/sim_counters.hh"

namespace twig::harness {

/** Snapshot of the per-phase simulation cycle counters. */
class SimProfile
{
  public:
    /** Cycle/call totals of one phase (plain, copyable). */
    struct PhaseTotals
    {
        std::uint64_t cycles = 0;
        std::uint64_t calls = 0;
    };

    /** Start recording (counters keep their current totals). */
    static void enable() { common::simprof::setEnabled(true); }
    static void disable() { common::simprof::setEnabled(false); }

    /** Zero every counter. */
    static void reset() { common::simprof::resetAll(); }

    /** Read the current totals. */
    static SimProfile snapshot();

    /** This snapshot minus an earlier one (per-phase deltas). */
    SimProfile since(const SimProfile &earlier) const;

    const PhaseTotals &
    phase(common::simprof::Phase p) const
    {
        return totals_[static_cast<std::size_t>(p)];
    }

    /** Sum of all phase cycles. */
    std::uint64_t totalCycles() const;

    /** Share of total cycles spent in @p p, in percent (0 when no
     * cycles were recorded at all). */
    double sharePct(common::simprof::Phase p) const;

    /** Phases whose share of total cycles strictly exceeds
     * @p share_pct (tools' --profile-max-share budget check). */
    std::vector<common::simprof::Phase>
    phasesAbove(double share_pct) const;

    /** Aligned per-phase table (cycles, calls, share of total). */
    void print(std::FILE *out) const;

    /**
     * JSON object mapping phase name to {"cycles": N, "calls": N};
     * every line is prefixed with @p indent.
     */
    void writeJson(std::FILE *out, const std::string &indent) const;

  private:
    std::array<PhaseTotals, common::simprof::kNumPhases> totals_{};
};

} // namespace twig::harness

#endif // TWIG_HARNESS_SIM_PROFILE_HH
