#include "fidelity.h"

#include <cmath>
#include <limits>

namespace h2perf {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
} // namespace

const std::vector<PaperSpeedup> &
paperFig12All()
{
    // Figure 12a, "All" geomean at 1 GB NM (also quoted in the header of
    // bench/fig12_speedup_ratios.cc; the tests keep the two in sync).
    static const std::vector<PaperSpeedup> table = {
        {"mempod", 1.318},  {"chameleon", 1.371}, {"lgm", 1.429},
        {"tagless", 1.417}, {"dfc", 1.547},       {"hybrid2", 1.542},
    };
    return table;
}

double
paperSpeedupFor(const std::string &spec)
{
    std::string name = spec.substr(0, spec.find(':'));
    for (const PaperSpeedup &p : paperFig12All())
        if (p.design == name)
            return p.speedup;
    return 0.0;
}

double
kendallTau(const std::vector<double> &a, const std::vector<double> &b)
{
    size_t n = a.size();
    if (n < 2 || b.size() != n)
        return kNaN;
    double concordant = 0, discordant = 0, tiedA = 0, tiedB = 0;
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            double da = a[i] - a[j];
            double db = b[i] - b[j];
            if (da == 0 && db == 0)
                continue;
            if (da == 0)
                ++tiedA;
            else if (db == 0)
                ++tiedB;
            else if ((da > 0) == (db > 0))
                ++concordant;
            else
                ++discordant;
        }
    }
    double denom = std::sqrt((concordant + discordant + tiedA) *
                             (concordant + discordant + tiedB));
    if (denom == 0)
        return kNaN;
    return (concordant - discordant) / denom;
}

double
meanAbsLogError(const std::vector<double> &measured,
                const std::vector<double> &reference)
{
    if (measured.empty() || measured.size() != reference.size())
        return kNaN;
    double sum = 0;
    for (size_t i = 0; i < measured.size(); ++i) {
        if (!(measured[i] > 0) || !(reference[i] > 0))
            return kNaN;
        sum += std::fabs(std::log(measured[i] / reference[i]));
    }
    return sum / double(measured.size());
}

} // namespace h2perf
