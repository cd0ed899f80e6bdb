#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace hostbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
fastest(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("fastest of zero repetitions");
    return *std::min_element(values.begin(), values.end());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (const double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

Percentile
percentile(std::vector<double> values, double pct)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    // Nearest rank: the ceil(p/100 * n)-th smallest sample (1-based).
    const double exact = pct / 100.0 * static_cast<double>(values.size());
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(exact - 1e-9)), 1, values.size());
    out.value = values[rank - 1];
    out.beyond = values.size() - rank;
    return out;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace hostbench
