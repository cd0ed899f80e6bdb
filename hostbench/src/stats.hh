/**
 * @file
 * The benchmark's own arithmetic: medians, nearest-rank percentiles with
 * the ten-beyond rule, fastest-of-K, geometric means, and the metric
 * name charset. Kept free of picosim types so the self-tests pin it in
 * isolation.
 */

#ifndef HOSTBENCH_STATS_HH
#define HOSTBENCH_STATS_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hostbench
{

/** Median (mean of the middle two for an even count). 0 when empty. */
double median(std::vector<double> values);

/** Smallest sample: the fastest of K repetitions of identical work.
 *  Throws std::invalid_argument when empty. */
double fastest(const std::vector<double> &values);

/** Geometric mean of positive values. 0 when empty. */
double geomean(const std::vector<double> &values);

/**
 * A nearest-rank percentile together with its support: the p-th
 * percentile is the smallest sample with at least p% of the samples at
 * or below it, and @c beyond counts the samples strictly after it in
 * rank order. A percentile is only reported as a tail statistic when at
 * least ten samples lie beyond it (tailOk).
 */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;

    bool tailOk() const { return beyond >= 10; }
};

/** Nearest-rank @p pct-th percentile (0 < pct <= 100) of @p values. */
Percentile percentile(std::vector<double> values, double pct);

/** True when @p name is a legal metric name: 1-64 characters of
 *  [A-Za-z0-9_.-], starting with a letter or digit. */
bool validMetricName(std::string_view name);

/** @p v printed with every significant digit (%.17g), as measured. */
std::string fullDigits(double v);

} // namespace hostbench

#endif // HOSTBENCH_STATS_HH
