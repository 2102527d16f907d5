/**
 * @file
 * Paper-accuracy scoring for the benchmark: the paper's Figure 12a
 * reference values, Kendall's rank correlation and the mean log error
 * of measured speed-ups against them.
 */

#pragma once

#include <string>
#include <vector>

namespace h2perf {

/** One design's "All" geomean speed-up over FM-only, paper Figure 12a
 *  (1 GB NM, 30 workloads). */
struct PaperSpeedup
{
    std::string design; ///< registry name (the spec before any ':')
    double speedup;
};

/** The six Figure 12a values, in the registry's Figure 12 order. */
const std::vector<PaperSpeedup> &paperFig12All();

/** Paper value for design spec @p spec (matched on the name before any
 *  ':'); 0 when the design is not in Figure 12a. */
double paperSpeedupFor(const std::string &spec);

/**
 * Kendall's tau-b between two equally long score vectors. Pairs tied in
 * both vectors count for neither side; ties in one vector shrink the
 * denominator, sqrt((n0 - t_a) * (n0 - t_b)). Returns NaN when fewer
 * than two items are given or either vector is constant.
 */
double kendallTau(const std::vector<double> &a, const std::vector<double> &b);

/** Mean of |ln(measured[i] / reference[i])|; NaN when the vectors are
 *  empty, differ in length, or hold a non-positive value. */
double meanAbsLogError(const std::vector<double> &measured,
                       const std::vector<double> &reference);

} // namespace h2perf
