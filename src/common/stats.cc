#include "common/stats.h"

#include <cmath>
#include <cstdio>

namespace cxlcommon {

void
RunningStat::add(double x)
{
    n_++;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStat::stddev() const
{
    if (n_ < 2) {
        return 0;
    }
    return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

std::string
format_bytes(std::uint64_t bytes)
{
    const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double value = static_cast<double>(bytes);
    int unit = 0;
    while (value >= 1024.0 && unit < 4) {
        value /= 1024.0;
        unit++;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.2f %s", value, units[unit]);
    return buf;
}

std::string
format_rate(double per_sec)
{
    const char* units[] = {"", "K", "M", "G"};
    int unit = 0;
    while (per_sec >= 1000.0 && unit < 3) {
        per_sec /= 1000.0;
        unit++;
    }
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.2f%s ops/s", per_sec, units[unit]);
    return buf;
}

} // namespace cxlcommon
